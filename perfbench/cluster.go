package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"littletable/internal/client"
	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/router"
	"littletable/internal/server"
	"littletable/internal/vfs"
)

// The deployment under test: littletabled and littletable-router
// defaults, except for the settings below (recorded in BENCHMARK.json).
const (
	numShards = 3
	// flushSize is scaled down from the 16 MB default so each table
	// flushes several times within one run.
	flushSize = 128 << 10
	// mergeDelay is scaled down from 90 s for the same reason: merges
	// of freshly flushed tablets happen inside the run.
	mergeDelay = 500 * clock.Millisecond
	// blockCacheBytes turns the per-table block cache on, so a working
	// set can fit in it (mixed) or not (dashboard). The cache charges a
	// block its uncompressed image, about 17 KB for a columnar block of
	// this schema. The mixed workload's reads of one table touch at most
	// about 250 KB of blocks; the dashboard's tables hold over 8 times
	// the cache each.
	blockCacheBytes = 320 << 10
)

// cluster is a router in front of three shard servers, each on its own
// loopback TCP listener, all in this process.
type cluster struct {
	dir     string
	servers []*server.Server
	addrs   []string
	router  *router.Router
	raddr   string
	wg      sync.WaitGroup
}

func serverOptions(root string, fsys vfs.FS) server.Options {
	o := server.Options{Root: root, Logf: func(string, ...interface{}) {}}
	o.Core.FlushSize = flushSize
	o.Core.MergeDelay = mergeDelay
	o.Core.BlockCacheBytes = blockCacheBytes
	o.Core.FS = fsys
	return o
}

// startCluster starts the shards and the router. fsys is nil (the OS
// filesystem) except in the traced run, which installs a counting FS.
func startCluster(dir string, fsys vfs.FS) (*cluster, error) {
	c := &cluster{dir: dir}
	for i := 0; i < numShards; i++ {
		srv, err := server.New(serverOptions(filepath.Join(dir, fmt.Sprintf("shard%d", i)), fsys))
		if err != nil {
			c.close()
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, lis.Addr().String())
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = srv.Serve(lis) // returns when the server closes
		}()
	}
	r, err := router.New(router.Options{Shards: c.addrs})
	if err != nil {
		c.close()
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		c.close()
		return nil, err
	}
	c.router, c.raddr = r, lis.Addr().String()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = r.Serve(lis)
	}()
	return c, nil
}

// close stops the router and the shards and waits for their serve loops.
func (c *cluster) close() error {
	var first error
	if c.router != nil {
		if err := c.router.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range c.servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.wg.Wait()
	return first
}

// shardOf returns the index of the shard the router places table on.
func (c *cluster) shardOf(table string) int {
	addr, _ := c.router.Placement(table)
	for i, a := range c.addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// coreTable returns the in-process table behind the owning shard.
func (c *cluster) coreTable(table string) (*core.Table, error) {
	i := c.shardOf(table)
	if i < 0 {
		return nil, fmt.Errorf("table %s has no shard", table)
	}
	return c.servers[i].Table(table)
}

// dial opens a one-connection client: the load generator uses at most
// one connection per poller or open-loop lane.
func dial(addr string) (*client.Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return client.DialContext(ctx, addr, client.Options{PoolSize: 1})
}

// createTables creates the tenant tables through the router, which
// places each on its ring owner.
func (c *cluster) createTables() error {
	cl, err := dial(c.raddr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for t := 0; t < numTables; t++ {
		if err := cl.CreateTable(tableName(t), usageSchema(), 0); err != nil {
			return fmt.Errorf("create %s: %w", tableName(t), err)
		}
	}
	return nil
}

// forTables runs fn on every tenant table's in-process handle.
func (c *cluster) forTables(fn func(t int, tab *core.Table) error) error {
	for t := 0; t < numTables; t++ {
		tab, err := c.coreTable(tableName(t))
		if err != nil {
			return err
		}
		if err := fn(t, tab); err != nil {
			return fmt.Errorf("%s: %w", tableName(t), err)
		}
	}
	return nil
}

// forTablesParallel runs fn on every tenant table's in-process handle,
// on as many tables at a time as the process has CPUs, and returns the
// first error.
func (c *cluster) forTablesParallel(fn func(t int, tab *core.Table) error) error {
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		mu    sync.Mutex
		first error
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1) - 1)
				if t >= numTables {
					return
				}
				tab, err := c.coreTable(tableName(t))
				if err == nil {
					err = fn(t, tab)
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("%s: %w", tableName(t), err)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// statsSum adds up every tenant table's counters.
func (c *cluster) statsSum() (core.StatsSnapshot, int64, int64) {
	var sum core.StatsSnapshot
	var hits, misses int64
	_ = c.forTables(func(_ int, tab *core.Table) error {
		addSnapshot(&sum, tab.Stats().Snapshot())
		h, m := tab.BlockCacheStats()
		hits += h
		misses += m
		return nil
	})
	return sum, hits, misses
}

// quiesceRounds is the least number of merge-delay waits quiesce makes.
// A fixed minimum keeps its duration from depending on whether the
// maintenance tick or quiesce itself happened to run a merge first.
const quiesceRounds = 3

// quiesce flushes every memtable and runs merges until none is left to
// do, waiting out the merge delay so no merge starts during the timed
// phase.
func (c *cluster) quiesce() error {
	if err := c.forTablesParallel(func(_ int, tab *core.Table) error { return tab.FlushAll() }); err != nil {
		return err
	}
	for round := 0; round < 10; round++ {
		tablets := 0
		if err := c.forTables(func(_ int, tab *core.Table) error {
			if n := tab.DiskTabletCount(); n > tablets {
				tablets = n
			}
			return nil
		}); err != nil {
			return err
		}
		if round == 0 && tablets < 2 {
			return nil // nothing to merge: no wait needed
		}
		time.Sleep(time.Duration(mergeDelay)*time.Microsecond + 100*time.Millisecond)
		before, _, _ := c.statsSum()
		if err := c.forTablesParallel(func(_ int, tab *core.Table) error { return tab.MaintainUntilQuiet() }); err != nil {
			return err
		}
		after, _, _ := c.statsSum()
		if round >= quiesceRounds-1 && after.Merges == before.Merges {
			return nil
		}
	}
	return nil
}

// addSnapshot adds b's counters to a, field by field.
func addSnapshot(a *core.StatsSnapshot, b core.StatsSnapshot) {
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(av.Field(i).Int() + bv.Field(i).Int())
	}
}

// diffSnapshot returns a - b, field by field.
func diffSnapshot(a, b core.StatsSnapshot) core.StatsSnapshot {
	d := a
	dv, bv := reflect.ValueOf(&d).Elem(), reflect.ValueOf(b)
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetInt(dv.Field(i).Int() - bv.Field(i).Int())
	}
	return d
}

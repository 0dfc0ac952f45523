package wire

import (
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// Hello opens a session.
type Hello struct {
	Version uint32
}

// Encode serializes the message payload.
func (m *Hello) Encode() []byte {
	var b Buf
	b.U32(m.Version)
	return b.B
}

// DecodeHello parses a Hello payload.
func DecodeHello(p []byte) (*Hello, error) {
	d := Dec{B: p}
	m := &Hello{Version: d.U32()}
	return m, d.Done()
}

// CreateTable asks the server to create a table.
type CreateTable struct {
	Name   string
	Schema *schema.Schema
	TTL    int64
}

// Encode serializes the message payload.
func (m *CreateTable) Encode() ([]byte, error) {
	var b Buf
	b.String(m.Name)
	if err := b.Schema(m.Schema); err != nil {
		return nil, err
	}
	b.I64(m.TTL)
	return b.B, nil
}

// DecodeCreateTable parses a CreateTable payload.
func DecodeCreateTable(p []byte) (*CreateTable, error) {
	d := Dec{B: p}
	m := &CreateTable{Name: d.String(), Schema: d.Schema(), TTL: d.I64()}
	return m, d.Done()
}

// TableName carries just a table name (DropTable, GetSchema, FlushTable,
// Stats).
type TableName struct {
	Name string
}

// Encode serializes the message payload.
func (m *TableName) Encode() []byte {
	var b Buf
	b.String(m.Name)
	return b.B
}

// DecodeTableName parses a TableName payload.
func DecodeTableName(p []byte) (*TableName, error) {
	d := Dec{B: p}
	m := &TableName{Name: d.String()}
	return m, d.Done()
}

// Insert carries a batch of rows. SchemaVersion lets the server reject
// rows encoded under a stale schema (the client then refreshes).
// ServerTimestamps, when set, tells the server to assign its current time
// to every row whose timestamp cell is zero (§3.1: "A client may also omit
// a row's timestamp entirely, in which case the server sets it to the
// current time").
type Insert struct {
	Table            string
	SchemaVersion    uint32
	ServerTimestamps bool
	Rows             []schema.Row
	sc               *schema.Schema
}

// NewInsert builds an insert batch for rows under sc.
func NewInsert(table string, sc *schema.Schema, serverTs bool, rows []schema.Row) *Insert {
	return &Insert{Table: table, SchemaVersion: sc.Version, ServerTimestamps: serverTs, Rows: rows, sc: sc}
}

// Encode serializes the message payload.
func (m *Insert) Encode() []byte {
	size := 4 + len(m.Table) + 4 + 1 + 4 // table, version, server-ts flag, row count
	for _, r := range m.Rows {
		size += m.sc.EncodedRowSize(r)
	}
	b := Buf{B: make([]byte, 0, size)}
	b.String(m.Table)
	b.U32(m.SchemaVersion)
	b.Bool(m.ServerTimestamps)
	b.Rows(m.sc, m.Rows)
	return b.B
}

// DecodeInsertHeader parses the table name and schema version; the caller
// looks up the table's schema and finishes with FinishDecode.
func DecodeInsertHeader(p []byte) (*Insert, *Dec, error) {
	d := &Dec{B: p}
	m := &Insert{Table: d.String(), SchemaVersion: d.U32(), ServerTimestamps: d.Bool()}
	if d.Err != nil {
		return nil, nil, d.Err
	}
	return m, d, nil
}

// FinishDecode decodes the row batch under sc.
func (m *Insert) FinishDecode(d *Dec, sc *schema.Schema) error {
	m.Rows = d.Rows(sc)
	return d.Done()
}

// Query is the wire form of a core.Query.
type Query struct {
	Table              string
	Lower, Upper       []ltval.Value
	HasLower, HasUpper bool
	LowerInc, UpperInc bool
	MinTs, MaxTs       int64
	Descending         bool
	Limit              uint32
}

// Encode serializes the message payload.
func (m *Query) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.Bool(m.HasLower)
	b.Values(m.Lower)
	b.Bool(m.LowerInc)
	b.Bool(m.HasUpper)
	b.Values(m.Upper)
	b.Bool(m.UpperInc)
	b.I64(m.MinTs)
	b.I64(m.MaxTs)
	b.Bool(m.Descending)
	b.U32(m.Limit)
	return b.B
}

// DecodeQuery parses a Query payload.
func DecodeQuery(p []byte) (*Query, error) {
	d := Dec{B: p}
	m := &Query{
		Table:    d.String(),
		HasLower: d.Bool(),
	}
	m.Lower = d.Values()
	m.LowerInc = d.Bool()
	m.HasUpper = d.Bool()
	m.Upper = d.Values()
	m.UpperInc = d.Bool()
	m.MinTs = d.I64()
	m.MaxTs = d.I64()
	m.Descending = d.Bool()
	m.Limit = d.U32()
	return m, d.Done()
}

// LatestRow asks for the most recent row matching a key prefix (§3.4.5).
type LatestRow struct {
	Table  string
	Prefix []ltval.Value
}

// Encode serializes the message payload.
func (m *LatestRow) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.Values(m.Prefix)
	return b.B
}

// DecodeLatestRow parses a LatestRow payload.
func DecodeLatestRow(p []byte) (*LatestRow, error) {
	d := Dec{B: p}
	m := &LatestRow{Table: d.String(), Prefix: d.Values()}
	return m, d.Done()
}

// Delete is the wire form of the §7 bulk delete: a two-dimensional box
// whose contents are removed. There is deliberately no residual predicate
// on the wire — privacy deletions target key ranges (a customer, a
// network, a device) and time ranges.
type Delete struct {
	Table              string
	Lower, Upper       []ltval.Value
	HasLower, HasUpper bool
	LowerInc, UpperInc bool
	MinTs, MaxTs       int64
}

// Encode serializes the message payload.
func (m *Delete) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.Bool(m.HasLower)
	b.Values(m.Lower)
	b.Bool(m.LowerInc)
	b.Bool(m.HasUpper)
	b.Values(m.Upper)
	b.Bool(m.UpperInc)
	b.I64(m.MinTs)
	b.I64(m.MaxTs)
	return b.B
}

// DecodeDelete parses a Delete payload.
func DecodeDelete(p []byte) (*Delete, error) {
	d := Dec{B: p}
	m := &Delete{Table: d.String(), HasLower: d.Bool()}
	m.Lower = d.Values()
	m.LowerInc = d.Bool()
	m.HasUpper = d.Bool()
	m.Upper = d.Values()
	m.UpperInc = d.Bool()
	m.MinTs = d.I64()
	m.MaxTs = d.I64()
	return m, d.Done()
}

// DeleteResult reports how many rows a Delete removed.
type DeleteResult struct {
	Deleted int64
}

// Encode serializes the message payload.
func (m *DeleteResult) Encode() []byte {
	var b Buf
	b.I64(m.Deleted)
	return b.B
}

// DecodeDeleteResult parses a DeleteResult payload.
func DecodeDeleteResult(p []byte) (*DeleteResult, error) {
	d := Dec{B: p}
	m := &DeleteResult{Deleted: d.I64()}
	return m, d.Done()
}

// AlterTTL changes a table's TTL.
type AlterTTL struct {
	Table string
	TTL   int64
}

// Encode serializes the message payload.
func (m *AlterTTL) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.I64(m.TTL)
	return b.B
}

// DecodeAlterTTL parses an AlterTTL payload.
func DecodeAlterTTL(p []byte) (*AlterTTL, error) {
	d := Dec{B: p}
	m := &AlterTTL{Table: d.String(), TTL: d.I64()}
	return m, d.Done()
}

// AddColumn appends a column to a table's schema.
type AddColumn struct {
	Table   string
	Name    string
	Type    ltval.Type
	Default ltval.Value
}

// Encode serializes the message payload.
func (m *AddColumn) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.String(m.Name)
	b.U8(uint8(m.Type))
	hasDefault := m.Default.Type != ltval.Invalid
	b.Bool(hasDefault)
	if hasDefault {
		b.Value(m.Default)
	}
	return b.B
}

// DecodeAddColumn parses an AddColumn payload.
func DecodeAddColumn(p []byte) (*AddColumn, error) {
	d := Dec{B: p}
	m := &AddColumn{Table: d.String(), Name: d.String(), Type: ltval.Type(d.U8())}
	if d.Bool() {
		m.Default = d.Value()
	}
	return m, d.Done()
}

// WidenColumn widens an int32 column.
type WidenColumn struct {
	Table string
	Name  string
}

// Encode serializes the message payload.
func (m *WidenColumn) Encode() []byte {
	var b Buf
	b.String(m.Table)
	b.String(m.Name)
	return b.B
}

// DecodeWidenColumn parses a WidenColumn payload.
func DecodeWidenColumn(p []byte) (*WidenColumn, error) {
	d := Dec{B: p}
	m := &WidenColumn{Table: d.String(), Name: d.String()}
	return m, d.Done()
}

// --- server→client ---

// ErrorMsg reports a failed request.
type ErrorMsg struct {
	Message string
}

// Encode serializes the message payload.
func (m *ErrorMsg) Encode() []byte {
	var b Buf
	b.String(m.Message)
	return b.B
}

// DecodeErrorMsg parses an ErrorMsg payload.
func DecodeErrorMsg(p []byte) (*ErrorMsg, error) {
	d := Dec{B: p}
	m := &ErrorMsg{Message: d.String()}
	return m, d.Done()
}

// TableList answers ListTables.
type TableList struct {
	Names []string
}

// Encode serializes the message payload.
func (m *TableList) Encode() []byte {
	var b Buf
	b.U32(uint32(len(m.Names)))
	for _, n := range m.Names {
		b.String(n)
	}
	return b.B
}

// DecodeTableList parses a TableList payload.
func DecodeTableList(p []byte) (*TableList, error) {
	d := Dec{B: p}
	n := int(d.U32())
	m := &TableList{}
	for i := 0; i < n && d.Err == nil; i++ {
		m.Names = append(m.Names, d.String())
	}
	return m, d.Done()
}

// SchemaResp answers GetSchema: the schema, its sort order (implied by the
// schema's key), and the table's TTL.
type SchemaResp struct {
	Schema *schema.Schema
	TTL    int64
}

// Encode serializes the message payload.
func (m *SchemaResp) Encode() ([]byte, error) {
	var b Buf
	if err := b.Schema(m.Schema); err != nil {
		return nil, err
	}
	b.I64(m.TTL)
	return b.B, nil
}

// DecodeSchemaResp parses a SchemaResp payload.
func DecodeSchemaResp(p []byte) (*SchemaResp, error) {
	d := Dec{B: p}
	m := &SchemaResp{Schema: d.Schema(), TTL: d.I64()}
	return m, d.Done()
}

// Rows answers a Query: one batch of result rows plus the more-available
// flag (§3.5). The client resumes past the last row when more is set.
type Rows struct {
	SchemaVersion uint32
	More          bool
	Rows          []schema.Row
}

// Encode serializes the message payload under sc.
func (m *Rows) Encode(sc *schema.Schema) []byte {
	var b Buf
	b.U32(m.SchemaVersion)
	b.Bool(m.More)
	b.Rows(sc, m.Rows)
	return b.B
}

// DecodeRows parses a Rows payload under sc.
func DecodeRows(p []byte, sc *schema.Schema) (*Rows, error) {
	d := Dec{B: p}
	m := &Rows{SchemaVersion: d.U32(), More: d.Bool()}
	m.Rows = d.Rows(sc)
	return m, d.Done()
}

// RowResult answers LatestRow.
type RowResult struct {
	Found bool
	Row   schema.Row
}

// Encode serializes the message payload under sc.
func (m *RowResult) Encode(sc *schema.Schema) []byte {
	var b Buf
	b.Bool(m.Found)
	if m.Found {
		b.Rows(sc, []schema.Row{m.Row})
	}
	return b.B
}

// DecodeRowResult parses a RowResult payload under sc.
func DecodeRowResult(p []byte, sc *schema.Schema) (*RowResult, error) {
	d := Dec{B: p}
	m := &RowResult{Found: d.Bool()}
	if m.Found {
		rows := d.Rows(sc)
		if len(rows) == 1 {
			m.Row = rows[0]
		} else if d.Err == nil {
			d.fail("row result")
		}
	}
	return m, d.Done()
}

// StatsResult carries a table's counters for monitoring and the benchmark
// harness.
type StatsResult struct {
	RowsInserted   int64
	RowsReturned   int64
	RowsScanned    int64
	Queries        int64
	DiskTablets    int64
	DiskBytes      int64
	MemTablets     int64
	TabletsFlushed int64
	Merges         int64
	BytesFlushed   int64
	BytesMerged    int64
	RowsRewritten  int64
	RowEstimate    int64
	TabletsExpired int64

	// Uniqueness-check resolution counters: how inserts proved a key new
	// (§3.2's fast paths versus Bloom filters versus point reads).
	UniqueFastNew int64
	UniqueFastKey int64
	UniqueBloom   int64
	UniqueProbes  int64

	// Robustness counters: bad-storage events the table absorbed.
	TabletsQuarantined int64
	FlushFailures      int64
	MergeFailures      int64
	MergeRetries       int64
	FaultRecoveries    int64
	ReadErrors         int64

	// Parallel read-path counters: block traffic and cache effectiveness.
	BlocksRead       int64
	PrefetchHits     int64
	ParallelOpens    int64
	BlockCacheHits   int64
	BlockCacheMisses int64

	// Write-pipeline counters: group commit, seal/flush pipeline state,
	// and backpressure.
	InsertBatches      int64
	GroupCommits       int64
	TabletsSealed      int64
	AsyncFlushes       int64
	SealedBytes        int64 // gauge: sealed-but-unflushed bytes right now
	FlushQueueDepth    int64 // gauge: pending flush groups right now
	BackpressureStalls int64
	CommitFailures     int64 // descriptor commits that failed, losing sealed rows
	RowsLost           int64 // rows dropped by failed descriptor commits

	// Maintenance-scheduler counters: parallel merge/expiry progress,
	// queue delay (priority aging), and I/O-budget throttling.
	MergesInFlight            int64 // gauge: merges running right now
	MergeWaitNs               int64
	ExpiriesInFlight          int64 // gauge: expiry rounds running right now
	ExpiryWaitNs              int64
	ExpiryRuns                int64
	MaintenanceBytesThrottled int64
	MaintenanceThrottleNs     int64

	// Migration counters: sealed tablets received from another shard.
	TabletsInstalled int64
	BytesInstalled   int64

	// Block-encoding counters: columnar codec adoption and the bytes it
	// saves, across flushes, merges, and retention rewrites.
	BlocksEncoded         int64
	BlocksEncodedColumnar int64
	BytesBeforeEncode     int64
	BytesAfterEncode      int64
	ColumnsDeltaEncoded   int64
	ColumnsXOREncoded     int64
	ColumnsDictEncoded    int64
	ColumnsPlainEncoded   int64

	// Aggregation + downsampling counters: the MsgAggQuery read path and
	// the continuous-downsampling rollup jobs sourced from this table.
	AggQueries        int64
	AggRowsFolded     int64
	RollupRuns        int64
	RollupRowsWritten int64
}

// Encode serializes the message payload.
func (m *StatsResult) Encode() []byte {
	var b Buf
	for _, v := range []int64{
		m.RowsInserted, m.RowsReturned, m.RowsScanned, m.Queries,
		m.DiskTablets, m.DiskBytes, m.MemTablets, m.TabletsFlushed, m.Merges,
		m.BytesFlushed, m.BytesMerged, m.RowsRewritten, m.RowEstimate, m.TabletsExpired,
		m.UniqueFastNew, m.UniqueFastKey, m.UniqueBloom, m.UniqueProbes,
		m.TabletsQuarantined, m.FlushFailures, m.MergeFailures,
		m.MergeRetries, m.FaultRecoveries, m.ReadErrors,
		m.BlocksRead, m.PrefetchHits, m.ParallelOpens,
		m.BlockCacheHits, m.BlockCacheMisses,
		m.InsertBatches, m.GroupCommits, m.TabletsSealed,
		m.AsyncFlushes, m.SealedBytes, m.FlushQueueDepth,
		m.BackpressureStalls, m.CommitFailures, m.RowsLost,
		m.MergesInFlight, m.MergeWaitNs,
		m.ExpiriesInFlight, m.ExpiryWaitNs, m.ExpiryRuns,
		m.MaintenanceBytesThrottled, m.MaintenanceThrottleNs,
		m.TabletsInstalled, m.BytesInstalled,
		m.BlocksEncoded, m.BlocksEncodedColumnar,
		m.BytesBeforeEncode, m.BytesAfterEncode,
		m.ColumnsDeltaEncoded, m.ColumnsXOREncoded,
		m.ColumnsDictEncoded, m.ColumnsPlainEncoded,
		m.AggQueries, m.AggRowsFolded,
		m.RollupRuns, m.RollupRowsWritten,
	} {
		b.I64(v)
	}
	return b.B
}

// DecodeStatsResult parses a StatsResult payload.
func DecodeStatsResult(p []byte) (*StatsResult, error) {
	d := Dec{B: p}
	m := &StatsResult{}
	for _, f := range []*int64{
		&m.RowsInserted, &m.RowsReturned, &m.RowsScanned, &m.Queries,
		&m.DiskTablets, &m.DiskBytes, &m.MemTablets, &m.TabletsFlushed, &m.Merges,
		&m.BytesFlushed, &m.BytesMerged, &m.RowsRewritten, &m.RowEstimate, &m.TabletsExpired,
		&m.UniqueFastNew, &m.UniqueFastKey, &m.UniqueBloom, &m.UniqueProbes,
		&m.TabletsQuarantined, &m.FlushFailures, &m.MergeFailures,
		&m.MergeRetries, &m.FaultRecoveries, &m.ReadErrors,
		&m.BlocksRead, &m.PrefetchHits, &m.ParallelOpens,
		&m.BlockCacheHits, &m.BlockCacheMisses,
		&m.InsertBatches, &m.GroupCommits, &m.TabletsSealed,
		&m.AsyncFlushes, &m.SealedBytes, &m.FlushQueueDepth,
		&m.BackpressureStalls, &m.CommitFailures, &m.RowsLost,
		&m.MergesInFlight, &m.MergeWaitNs,
		&m.ExpiriesInFlight, &m.ExpiryWaitNs, &m.ExpiryRuns,
		&m.MaintenanceBytesThrottled, &m.MaintenanceThrottleNs,
		&m.TabletsInstalled, &m.BytesInstalled,
		&m.BlocksEncoded, &m.BlocksEncodedColumnar,
		&m.BytesBeforeEncode, &m.BytesAfterEncode,
		&m.ColumnsDeltaEncoded, &m.ColumnsXOREncoded,
		&m.ColumnsDictEncoded, &m.ColumnsPlainEncoded,
		&m.AggQueries, &m.AggRowsFolded,
		&m.RollupRuns, &m.RollupRowsWritten,
	} {
		*f = d.I64()
	}
	return m, d.Done()
}

// ServerStatsResult carries server-level (not per-table) counters: the
// connection hardening drops, the admission gate's shed count, and drain
// progress. The shard router (ROADMAP item 2) reads these to judge shard
// health.
type ServerStatsResult struct {
	ConnsActive          int64 // gauge: live client connections
	RequestsInFlight     int64 // gauge: requests past the admission gate right now
	ConnsDroppedDeadline int64
	ConnsDroppedOversize int64
	RequestsShed         int64 // requests refused with MsgOverloaded
	Draining             int64 // gauge: 1 while a graceful Shutdown is in progress
	DrainNs              int64 // total ns spent draining in Shutdown
}

// Encode serializes the message payload.
func (m *ServerStatsResult) Encode() []byte {
	var b Buf
	for _, v := range []int64{
		m.ConnsActive, m.RequestsInFlight,
		m.ConnsDroppedDeadline, m.ConnsDroppedOversize,
		m.RequestsShed, m.Draining, m.DrainNs,
	} {
		b.I64(v)
	}
	return b.B
}

// DecodeServerStatsResult parses a ServerStatsResult payload.
func DecodeServerStatsResult(p []byte) (*ServerStatsResult, error) {
	d := Dec{B: p}
	m := &ServerStatsResult{}
	for _, f := range []*int64{
		&m.ConnsActive, &m.RequestsInFlight,
		&m.ConnsDroppedDeadline, &m.ConnsDroppedOversize,
		&m.RequestsShed, &m.Draining, &m.DrainNs,
	} {
		*f = d.I64()
	}
	return m, d.Done()
}

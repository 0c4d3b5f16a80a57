package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scanraw/internal/scanraw"
	"scanraw/internal/testutil"
	"scanraw/internal/vdisk"
)

// replyDeadline bounds every request of the dispatch tests: a query that
// lingers a CoalesceWindow of an hour fails its test instead of hanging it.
const replyDeadline = 30 * time.Second

type reply struct {
	status int
	out    map[string]any
	err    error
}

// postWithin POSTs a /query body through client, bounded by replyDeadline.
func postWithin(client *http.Client, env *serverEnv, sql string) reply {
	if client == nil {
		client = &http.Client{Timeout: replyDeadline}
	}
	resp, err := client.Post(env.ts.URL+"/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"sql": %q}`, sql)))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode}
	r.err = json.NewDecoder(resp.Body).Decode(&r.out)
	return r
}

// batchOf checks a reply succeeded and returns its batch_size.
func batchOf(t *testing.T, r reply) int {
	t.Helper()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("status = %d: %v", r.status, r.out)
	}
	bs, _ := r.out["stats"].(map[string]any)["batch_size"].(float64)
	return int(bs)
}

// loadAll stores every column of every chunk of env's table, through an
// operator of its own, before the server's first query: the server then
// serves a table that needs no conversion.
func loadAll(t *testing.T, env *serverEnv) {
	t.Helper()
	table, _ := env.srv.store.Table("data")
	op := scanraw.New(env.srv.store, table, scanraw.Config{Workers: 2, ChunkLines: 64, Policy: scanraw.FullLoad})
	if _, err := op.Run(scanraw.Request{
		Columns: []int{0, 1, 2, 3},
		Deliver: func(*scanraw.BinaryChunk) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	op.WaitIdle()
	if !table.FullyLoaded() {
		t.Fatal("table not fully loaded after a FullLoad scan")
	}
}

// queued is how many queries wait in the table's batcher for the next
// batch.
func queued(s *Server, table string) int {
	s.mu.RLock()
	e := s.tables[table]
	s.mu.RUnlock()
	b := e.batch.Load()
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// gateDisk holds every read while it is shut and signals the first read it
// holds, so a test parks a running scan at a known point without a sleep.
type gateDisk struct {
	*vdisk.Disk
	closed atomic.Bool
	gate   chan struct{} // closed by open
	held   chan struct{} // closed by the first held read
	once   sync.Once
}

func newGateDisk() *gateDisk {
	return &gateDisk{Disk: vdisk.Unlimited(), gate: make(chan struct{}), held: make(chan struct{})}
}

func (g *gateDisk) shut() { g.closed.Store(true) }

func (g *gateDisk) open() {
	g.closed.Store(false)
	close(g.gate)
}

func (g *gateDisk) ReadAt(name string, p []byte, off int64) (int, error) {
	if g.closed.Load() {
		g.once.Do(func() { close(g.held) })
		<-g.gate
	}
	return g.Disk.ReadAt(name, p, off)
}

// TestNoLingerOnLoadedTable: a query that finds the batcher idle on a table
// with every chunk loaded converts nothing, so it is dispatched at once —
// with a window of an hour, only a regression makes it wait.
func TestNoLingerOnLoadedTable(t *testing.T) {
	env := newServerEnv(t, 1024, nil, Config{CoalesceWindow: time.Hour},
		scanraw.Config{Workers: 2, Policy: scanraw.FullLoad})
	loadAll(t, env)
	r := postWithin(nil, env, sumSQL)
	if bs := batchOf(t, r); bs != 1 {
		t.Errorf("batch_size = %d, want 1", bs)
	}
	if got := firstValue(t, r.out); got != env.want {
		t.Errorf("sum = %d, want %d", got, env.want)
	}
	if raw := r.out["stats"].(map[string]any)["scan_chunks_raw"].(float64); raw != 0 {
		t.Errorf("scan_chunks_raw = %v on a loaded table, want 0", raw)
	}
}

// TestArrivalsDuringScanShareNextBatch: queries that arrive while a scan
// runs queue behind it and leave together, as one batch, the moment it
// ends — without a window (an hour here) and without joining the running
// scan.
func TestArrivalsDuringScanShareNextBatch(t *testing.T) {
	const n = 5
	gd := newGateDisk()
	env := newServerEnv(t, 1024, gd, Config{MaxConcurrent: n + 1, CoalesceWindow: time.Hour},
		scanraw.Config{Workers: 2, Policy: scanraw.FullLoad})
	loadAll(t, env)
	before := env.srv.MetricsSnapshot().PhysicalScans

	gd.shut()
	first := make(chan reply, 1)
	go func() { first <- postWithin(nil, env, sumSQL) }()
	select {
	case <-gd.held:
	case <-time.After(replyDeadline):
		t.Fatal("the first query's scan never read the disk")
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() { replies <- postWithin(nil, env, sumSQL) }()
	}
	// Admission precedes the enqueue, so wait on the queue itself.
	deadline := time.Now().Add(replyDeadline)
	for queued(env.srv, "data") < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d queries queued behind the running scan", queued(env.srv, "data"), n)
		}
		time.Sleep(time.Millisecond)
	}
	gd.open()

	if bs := batchOf(t, <-first); bs != 1 {
		t.Errorf("first query: batch_size = %d, want 1", bs)
	}
	for i := 0; i < n; i++ {
		r := <-replies
		if bs := batchOf(t, r); bs != n {
			t.Errorf("queued query: batch_size = %d, want %d", bs, n)
		}
		if got := firstValue(t, r.out); got != env.want {
			t.Errorf("queued query: sum = %d, want %d", got, env.want)
		}
	}
	if scans := env.srv.MetricsSnapshot().PhysicalScans - before; scans != 2 {
		t.Errorf("physical_scans_total rose by %d, want 2 (the held scan, then one for the queue)", scans)
	}
}

// TestDrainGoroutineExits: the batcher's drain goroutine lives only while
// there is a queue. After a burst of concurrent queries and a Drain,
// nothing the burst started is still running.
func TestDrainGoroutineExits(t *testing.T) {
	const clients = 8
	env := newServerEnv(t, 1024, nil, Config{MaxConcurrent: clients},
		scanraw.Config{Workers: 2, CacheChunks: 4})
	tr := &http.Transport{}
	client := &http.Client{Timeout: replyDeadline, Transport: tr}
	before := testutil.Snapshot()

	sqls := []string{sumSQL, "SELECT c0, c1 FROM data LIMIT 5", "SELECT COUNT(*) FROM data WHERE c2 < 300"}
	var wg sync.WaitGroup
	replies := make([]reply, clients)
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = postWithin(client, env, sqls[i%len(sqls)])
		}(i)
	}
	wg.Wait()
	for _, r := range replies {
		batchOf(t, r)
	}
	ctx, cancel := context.WithTimeout(context.Background(), replyDeadline)
	defer cancel()
	if err := env.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	env.ts.Close()
	tr.CloseIdleConnections()
	if leaked := testutil.LeakedSince(before, 5*time.Second); len(leaked) > 0 {
		t.Fatalf("%d goroutine(s) outlived the burst and the drain:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

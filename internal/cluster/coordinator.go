package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scanraw/internal/engine"
)

// Config parameterizes a Coordinator.
type Config struct {
	// PeerTimeout bounds one exec attempt against one peer. Default 30s.
	PeerTimeout time.Duration
	// RetryBackoff is the pause before a retry attempt (scaled by attempt
	// number). Default 50ms.
	RetryBackoff time.Duration
	// HealthInterval is the background /healthz probe period; 0 defaults
	// to 2s, negative disables probing (every peer is assumed healthy).
	HealthInterval time.Duration
	// DefaultTimeout bounds whole queries with no client timeout. Zero
	// means no limit.
	DefaultTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 30 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	return c
}

// peerState is the coordinator's live view of one worker.
type peerState struct {
	addr     string
	healthy  atomic.Bool
	draining atomic.Bool
	inFlight atomic.Int64
	requests atomic.Int64
	failures atomic.Int64
}

// Coordinator scatters queries over a fleet and gathers the results
// through the engine merge tree.
type Coordinator struct {
	fleet  *Fleet
	client *Client
	cfg    Config
	start  time.Time

	peers map[string]*peerState

	queries        atomic.Int64
	peerRequests   atomic.Int64
	peerFailures   atomic.Int64
	retries        atomic.Int64
	partialResults atomic.Int64
	failed         atomic.Int64
	mergeUS        atomic.Int64 // cumulative merge time, microseconds

	stopHealth chan struct{}
	healthDone chan struct{}
}

// NewCoordinator builds a coordinator over a validated fleet and starts
// the background health prober (unless disabled). Close releases it.
func NewCoordinator(fleet *Fleet, cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		fleet:      fleet,
		client:     NewClient(),
		cfg:        cfg,
		start:      time.Now(),
		peers:      make(map[string]*peerState),
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	for _, addr := range fleet.PeerAddrs() {
		ps := &peerState{addr: addr}
		// Optimistic until the first probe: a fresh coordinator must not
		// shed queries while health is still unknown.
		ps.healthy.Store(true)
		co.peers[addr] = ps
	}
	if cfg.HealthInterval > 0 {
		go co.healthLoop()
	} else {
		close(co.healthDone)
	}
	return co
}

// Close stops the health prober and reaps idle peer connections.
func (co *Coordinator) Close() {
	close(co.stopHealth)
	<-co.healthDone
	co.client.Close()
}

func (co *Coordinator) healthLoop() {
	defer close(co.healthDone)
	tick := time.NewTicker(co.cfg.HealthInterval)
	defer tick.Stop()
	co.probeAll()
	for {
		select {
		case <-co.stopHealth:
			return
		case <-tick.C:
			co.probeAll()
		}
	}
}

func (co *Coordinator) probeAll() {
	probeTimeout := co.cfg.HealthInterval
	if probeTimeout > time.Second {
		probeTimeout = time.Second
	}
	var wg sync.WaitGroup
	for _, ps := range co.peers {
		wg.Add(1)
		go func(ps *peerState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			defer cancel()
			h := co.client.CheckHealth(ctx, ps.addr)
			ps.healthy.Store(h.OK)
			ps.draining.Store(h.Draining)
		}(ps)
	}
	wg.Wait()
}

// candidates orders an assignment's replicas for attempts: healthy
// non-draining peers first (config order), then draining, then dead —
// stale health must degrade placement, never make a shard unservable.
func (co *Coordinator) candidates(a *Assignment) []string {
	var ready, draining, dead []string
	for _, addr := range a.Peers {
		ps := co.peers[addr]
		switch {
		case ps == nil:
			dead = append(dead, addr)
		case ps.healthy.Load() && !ps.draining.Load():
			ready = append(ready, addr)
		case ps.draining.Load():
			draining = append(draining, addr)
		default:
			dead = append(dead, addr)
		}
	}
	out := append(ready, draining...)
	return append(out, dead...)
}

// execShard runs one assignment with per-peer timeouts, one bounded retry
// round with backoff, and replica failover. onMsg sees MsgRows/MsgPartial/
// MsgStats frames; an error returned by onMsg is local (client-side) and
// aborts without retrying. onAttempt, when non-nil, runs before every
// attempt with the attempt ordinal — the streamed-rows path uses it to arm
// its dedup skip.
func (co *Coordinator) execShard(ctx context.Context, a *Assignment, er ExecRequest, onAttempt func(attempt int), onMsg func(*Message) error) error {
	cands := co.candidates(a)
	if len(cands) == 0 {
		return fmt.Errorf("cluster: shard %v has no peers", a)
	}
	// One pass over the replicas plus one bounded retry round.
	maxAttempts := len(cands) + 1
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			co.retries.Add(1)
			select {
			case <-time.After(co.cfg.RetryBackoff * time.Duration(attempt)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		addr := cands[attempt%len(cands)]
		ps := co.peers[addr]
		if onAttempt != nil {
			onAttempt(attempt)
		}
		co.peerRequests.Add(1)
		if ps != nil {
			ps.requests.Add(1)
			ps.inFlight.Add(1)
		}
		attemptCtx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
		err := co.client.Exec(attemptCtx, addr, er, onMsg)
		cancel()
		if ps != nil {
			ps.inFlight.Add(-1)
		}
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The whole query was cancelled (client gone, or the LIMIT was
			// satisfied from other shards): the torn attempt is our own
			// doing, not a peer failure.
			return ctx.Err()
		}
		var pe *PeerError
		if !errors.As(err, &pe) {
			// Local failure (onMsg) — the client side broke, not the peer.
			return err
		}
		co.peerFailures.Add(1)
		if ps != nil {
			ps.failures.Add(1)
			ps.healthy.Store(false)
		}
		if !pe.Retryable() {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// shardResult is one assignment's gathered output in partial mode.
type shardResult struct {
	partial []byte
	stats   ExecStats
	err     error
}

// GatherPartials scatters the query to every shard of the table in
// parallel and returns each shard's serialized partial in assignment
// order. Shards that stay down after retry/failover report their error in
// place; the caller decides between failing the query and serving a
// partial result.
func (co *Coordinator) GatherPartials(ctx context.Context, table, sql string, timeoutMS int64) []shardResult {
	assigns := co.fleet.Assignments(table)
	out := make([]shardResult, len(assigns))
	var wg sync.WaitGroup
	for i := range assigns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := &assigns[i]
			er := ExecRequest{SQL: sql, Lo: a.Lo, Hi: a.Hi, Base: a.Base, Mode: ModePartial, TimeoutMS: timeoutMS}
			var sr shardResult
			sr.err = co.execShard(ctx, a, er, nil, func(m *Message) error {
				switch m.Type {
				case MsgPartial:
					sr.partial = m.Partial
				case MsgStats:
					sr.stats = m.Stats
				}
				return nil
			})
			if sr.err == nil && sr.partial == nil {
				sr.err = fmt.Errorf("cluster: shard %v returned no partial", a)
			}
			out[i] = sr
		}(i)
	}
	wg.Wait()
	return out
}

// MergeShardPartials decodes the gathered partials against the
// coordinator's parsed query and folds them in assignment order. It
// returns the merged partial, the summed stats, and the errors of shards
// that contributed nothing.
func (co *Coordinator) MergeShardPartials(q *engine.Query, table string, shards []shardResult) (*engine.Partial, ExecStats, []error) {
	sch, _ := co.fleet.Schema(table)
	var parts []*engine.Partial
	var stats ExecStats
	var errs []error
	for _, sr := range shards {
		if sr.err != nil {
			errs = append(errs, sr.err)
			continue
		}
		p, err := engine.DecodePartial(q, sch, sr.partial)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		parts = append(parts, p)
		stats.Add(sr.stats)
	}
	if len(parts) == 0 {
		return nil, stats, errs
	}
	start := time.Now()
	merged, err := engine.MergePartials(parts)
	co.mergeUS.Add(time.Since(start).Microseconds())
	if err != nil {
		return nil, stats, append(errs, err)
	}
	return merged, stats, errs
}

// streamItem is one unit flowing from a shard fetcher to the row emitter.
type streamItem struct {
	msg *Message
	err error
}

// StreamRows scatters a streamable query (non-aggregate, no ORDER BY) and
// invokes emit for every qualifying row in global canonical order —
// assignment order, then chunk ID, then row ordinal, exactly the
// single-process NDJSON order. limit > 0 stops after that many rows and
// cancels every in-flight peer request; the worker-side demand path has
// usually stopped the remote scans already. The per-shard stats callback
// fires as each shard completes. A cancelled shard reports none, so the
// shard that supplied the last row is first read to its end when it had
// met the LIMIT on its own (its scan stops by itself).
//
// Shard streams run concurrently with bounded buffering: later shards
// prefetch while the current one emits, but backpressure keeps a slow
// client from buffering a whole table. A shard failing mid-stream is
// retried (replica failover included) with an arm-and-skip dedup: rows
// already handed to the emitter are skipped on the fresh attempt, which
// is sound because every attempt produces the same deterministic order.
func (co *Coordinator) StreamRows(ctx context.Context, table, sql string, timeoutMS int64, limit int, emit func(row []engine.Value) error, onStats func(ExecStats)) error {
	assigns := co.fleet.Assignments(table)
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	chans := make([]chan streamItem, len(assigns))
	for i := range assigns {
		chans[i] = make(chan streamItem, 16)
		go func(i int) {
			a := &assigns[i]
			ch := chans[i]
			defer close(ch)
			er := ExecRequest{SQL: sql, Lo: a.Lo, Hi: a.Hi, Base: a.Base, Mode: ModeRows, TimeoutMS: timeoutMS}
			// delivered counts rows pushed into the channel across
			// attempts; skip arms how many rows of a fresh attempt are
			// duplicates of an earlier, partially-consumed stream.
			delivered, skip := 0, 0
			err := co.execShard(ctx, a, er, func(attempt int) { skip = delivered }, func(m *Message) error {
				if m.Type == MsgRows {
					if skip > 0 {
						if n := len(m.Rows); n <= skip {
							skip -= n
							return nil
						}
						m.Rows = m.Rows[skip:]
						skip = 0
					}
					delivered += len(m.Rows)
				}
				select {
				case ch <- streamItem{msg: m}:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			})
			if err != nil && ctx.Err() == nil {
				select {
				case ch <- streamItem{err: err}:
				case <-ctx.Done():
				}
			}
		}(i)
	}

	emitted := 0
	for i := range chans {
		sent := 0 // rows of shard i taken from its stream
		for item := range chans[i] {
			if item.err != nil {
				return item.err
			}
			m := item.msg
			switch m.Type {
			case MsgStats:
				onStats(m.Stats)
			case MsgRows:
				sent += len(m.Rows)
				rows := m.Rows
				if limit > 0 {
					rows = rows[:min(len(rows), limit-emitted)]
				}
				for _, row := range rows {
					if err := emit(row); err != nil {
						return err
					}
				}
				emitted += len(rows)
				if limit > 0 && emitted == limit {
					if sent >= limit {
						// The shard's own LIMIT stopped its scan too: its
						// stats frame is on the way. The rest are cancelled.
						finishStats(chans[i], onStats)
					}
					return nil
				}
			}
		}
	}
	return nil
}

// finishStats reads a shard's stream to its end for the stats frame.
func finishStats(ch <-chan streamItem, onStats func(ExecStats)) {
	for item := range ch {
		if item.msg != nil && item.msg.Type == MsgStats {
			onStats(item.msg.Stats)
		}
	}
}

// PeerMetrics is the per-peer slice of the coordinator's /metrics.
type PeerMetrics struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	InFlight int64  `json:"in_flight"`
	Requests int64  `json:"requests"`
	Failures int64  `json:"failures"`
}

// Metrics is the coordinator's GET /metrics payload.
type Metrics struct {
	UptimeMS       int64         `json:"uptime_ms"`
	Queries        int64         `json:"queries_total"`
	Failed         int64         `json:"failed_total"`
	PartialResults int64         `json:"partial_results_total"`
	PeerRequests   int64         `json:"cluster_peer_requests"`
	PeerFailures   int64         `json:"cluster_peer_failures"`
	Retries        int64         `json:"cluster_retries"`
	MergeMS        float64       `json:"cluster_merge_ms"`
	Peers          []PeerMetrics `json:"peers"`
	Tables         []string      `json:"tables"`
}

// MetricsSnapshot assembles the coordinator metrics report.
func (co *Coordinator) MetricsSnapshot() Metrics {
	m := Metrics{
		UptimeMS:       time.Since(co.start).Milliseconds(),
		Queries:        co.queries.Load(),
		Failed:         co.failed.Load(),
		PartialResults: co.partialResults.Load(),
		PeerRequests:   co.peerRequests.Load(),
		PeerFailures:   co.peerFailures.Load(),
		Retries:        co.retries.Load(),
		MergeMS:        float64(co.mergeUS.Load()) / 1000,
		Tables:         co.fleet.Tables(),
	}
	addrs := make([]string, 0, len(co.peers))
	for addr := range co.peers {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		ps := co.peers[addr]
		m.Peers = append(m.Peers, PeerMetrics{
			Addr:     addr,
			Healthy:  ps.healthy.Load(),
			Draining: ps.draining.Load(),
			InFlight: ps.inFlight.Load(),
			Requests: ps.requests.Load(),
			Failures: ps.failures.Load(),
		})
	}
	return m
}

package cluster

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"time"

	"scanraw/internal/engine"
	"scanraw/internal/queryapi"
)

// HTTP serving for the coordinator. POST /query speaks internal/queryapi,
// the same wire a single scanrawd answers with, so a client cannot tell
// the two apart; GET /metrics, GET /healthz, and GET /fleet expose
// coordinator state.

// Handler returns the coordinator's HTTP mux.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", co.handleQuery)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		queryapi.WriteJSON(w, http.StatusOK, co.MetricsSnapshot())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		queryapi.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": "coordinator"})
	})
	mux.HandleFunc("GET /fleet", func(w http.ResponseWriter, r *http.Request) {
		queryapi.WriteJSON(w, http.StatusOK, co.fleet.Config())
	})
	return mux
}

func (co *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	co.queries.Add(1)
	var qr queryapi.Request
	if !queryapi.DecodeBody(w, r, &qr) {
		co.failed.Add(1)
		return
	}
	reject := func(status int, format string, args ...any) {
		co.failed.Add(1)
		queryapi.WriteError(w, status, format, args...)
	}
	if strings.TrimSpace(qr.SQL) == "" {
		reject(http.StatusBadRequest, "empty sql")
		return
	}
	table, err := engine.FromTable(qr.SQL)
	if err != nil {
		reject(http.StatusBadRequest, "%v", err)
		return
	}
	sch, ok := co.fleet.Schema(table)
	if !ok {
		reject(http.StatusNotFound, "unknown table %q", table)
		return
	}
	shards := len(co.fleet.Assignments(table))
	if shards == 0 {
		reject(http.StatusNotFound, "no peer owns table %q", table)
		return
	}
	q, err := engine.ParseSQL(qr.SQL, sch)
	if err != nil {
		reject(http.StatusBadRequest, "bad query: %v", err)
		return
	}
	ctx, cancel := queryapi.WithTimeout(r.Context(), qr.TimeoutMS, co.cfg.DefaultTimeout)
	defer cancel()

	var nd *queryapi.NDJSON
	if r.URL.Query().Get("stream") == "ndjson" {
		nd = queryapi.NewNDJSON(w)
	}
	start := time.Now()
	var (
		stats ExecStats
		rows  [][]engine.Value
		errs  []error // shards a degraded answer is missing
	)
	if !q.IsAggregate() && len(q.OrderBy) == 0 {
		// Streamable shapes scatter in rows mode: workers stream
		// incrementally and the coordinator can cancel them the moment
		// LIMIT is satisfied. NDJSON replies emit rows as they arrive from
		// the fleet; JSON replies accumulate them first.
		emit := func(row []engine.Value) error {
			rows = append(rows, row)
			return nil
		}
		if nd != nil {
			nd.Header(q.ColumnNames())
			emit = func(row []engine.Value) error {
				nd.Rows(row)
				return nil
			}
		}
		err = co.StreamRows(ctx, table, qr.SQL, qr.TimeoutMS, q.Limit, emit, stats.Add)
	} else {
		// Everything else scatters in partial mode and merges through the
		// engine. Shards that stay down after retry and failover degrade
		// the reply to a partial result carrying their errors rather than
		// failing the whole query.
		var merged *engine.Partial
		merged, stats, errs = co.MergeShardPartials(q, table, co.GatherPartials(ctx, table, qr.SQL, qr.TimeoutMS))
		if merged == nil {
			err = errors.Join(errs...)
		} else {
			var res *engine.Result
			if res, err = merged.Result(); err == nil {
				rows = res.Rows
			}
		}
	}
	switch {
	case err != nil && nd.Started():
		// Headers are gone; report the failure in-band.
		co.failed.Add(1)
		nd.Error(err)
		return
	case err != nil:
		co.writeQueryError(w, err)
		return
	}
	st := queryapi.ScanStats(start, stats.Scan, stats.Member)
	st.BatchSize, st.Policy, st.Shards = 1, "distributed", shards
	if len(errs) > 0 {
		co.partialResults.Add(1)
		st.Partial = true
		st.ShardsFailed = len(errs)
		for _, e := range errs {
			st.Errors = append(st.Errors, e.Error())
		}
	}
	if nd == nil {
		queryapi.WriteResult(w, q.ColumnNames(), rows, st)
		return
	}
	if !nd.Started() {
		nd.Header(q.ColumnNames())
	}
	nd.Rows(rows...)
	nd.Stats(st)
}

// writeQueryError maps a scatter failure onto a status code: client
// cancellation and timeouts as a single scanrawd reports them; anything
// else is a bad gateway because the failure happened fleet-side.
func (co *Coordinator) writeQueryError(w http.ResponseWriter, err error) {
	co.failed.Add(1)
	var pe *PeerError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		queryapi.WriteContextError(w, err)
	case errors.As(err, &pe) && pe.Status == http.StatusBadRequest:
		// Deterministic query rejection from a worker — relay it.
		queryapi.WriteError(w, http.StatusBadRequest, "%v", err)
	default:
		queryapi.WriteError(w, http.StatusBadGateway, "fleet execution failed: %v", err)
	}
}

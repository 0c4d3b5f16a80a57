package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// replyStats is the part of the per-query stats block the harness reads.
type replyStats struct {
	ScanChunksRaw  int `json:"scan_chunks_raw"`
	ScanChunksPart int `json:"scan_chunks_partial"`
}

// reply is one answered query as the client saw it.
type reply struct {
	latency time.Duration // request sent -> body fully read
	ttfb    time.Duration // request sent -> first row line (streams), else latency
	rows    int
	content [][]any // decoded cells; nil for a stream reply read in counting mode
	stats   replyStats
}

// client is one closed-loop analyst: one keep-alive connection, the next
// request sent only after the previous reply was read to its end.
type client struct {
	hc   *http.Client
	base string
	buf  *bufio.Reader
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base, buf: bufio.NewReaderSize(nil, 64<<10)}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends q and reads the whole reply. With full set, a stream reply's rows
// are decoded for the content check; otherwise they are only counted, so the
// load generator stays cheap next to the daemon it shares two cores with.
func (c *client) do(ctx context.Context, q *query, full bool) (reply, error) {
	body, _ := json.Marshal(map[string]string{"sql": q.sql})
	url := c.base + "/query"
	if q.params != "" {
		url += "?" + q.params
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return reply{}, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var rep reply
	if q.class == "stream" {
		err = c.readStream(resp.Body, start, full, &rep)
	} else {
		err = readJSON(resp.Body, &rep)
		rep.ttfb = time.Since(start)
	}
	rep.latency = time.Since(start)
	return rep, err
}

func decodeCells(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

func readJSON(r io.Reader, rep *reply) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var body struct {
		Rows  [][]any    `json:"rows"`
		Stats replyStats `json:"stats"`
	}
	if err := decodeCells(data, &body); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	rep.rows, rep.content, rep.stats = len(body.Rows), body.Rows, body.Stats
	return nil
}

// readStream reads an NDJSON reply: a columns header, one line per row, and
// a stats trailer (or an in-band error line).
func (c *client) readStream(r io.Reader, start time.Time, full bool, rep *reply) error {
	c.buf.Reset(r)
	var last []byte
	lines := 0
	for {
		line, err := c.buf.ReadSlice('\n')
		if len(line) > 0 {
			lines++
			if lines == 2 {
				rep.ttfb = time.Since(start)
			}
			last = append(last[:0], line...)
			if full && lines > 1 && line[0] == '[' {
				var row []any
				if err := decodeCells(line, &row); err != nil {
					return fmt.Errorf("decoding row line %d: %w", lines, err)
				}
				rep.content = append(rep.content, row)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	var trailer struct {
		Stats *replyStats `json:"stats"`
		Error string      `json:"error"`
	}
	if err := json.Unmarshal(last, &trailer); err != nil {
		return fmt.Errorf("decoding stream trailer %q: %w", last, err)
	}
	if trailer.Error != "" || trailer.Stats == nil {
		return fmt.Errorf("stream ended without stats: %s", bytes.TrimSpace(last))
	}
	rep.rows = lines - 2
	rep.stats = *trailer.Stats
	return nil
}

// checker verifies replies against the oracle: the row count of every
// reply, the full content of the first reply to each distinct statement. The
// clients of a loop share one, so each statement is checked in full once.
type checker struct {
	mu   sync.Mutex
	seen map[string]bool
}

func newChecker() *checker { return &checker{seen: map[string]bool{}} }

// claimFull reports whether the caller should read the next reply to q in
// full for the content check; it says yes once per distinct statement.
func (k *checker) claimFull(q *query) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.seen[q.id()] {
		return false
	}
	k.seen[q.id()] = true
	return true
}

// check compares one reply with the oracle; full is what claimFull returned
// for it.
func (k *checker) check(q *query, rep reply, full bool) error {
	if rep.rows != q.rows {
		return fmt.Errorf("%s: %d rows, want %d", q.sql, rep.rows, q.rows)
	}
	if !full {
		return nil
	}
	if err := compareRows(rep.content, q.want(), q.unordered, q.tol); err != nil {
		return fmt.Errorf("%s: %w", q.sql, err)
	}
	return nil
}

// ask is one checked request: send, read, compare.
func (c *client) ask(ctx context.Context, k *checker, q *query) (reply, error) {
	full := k.claimFull(q)
	rep, err := c.do(ctx, q, full)
	if err == nil {
		err = k.check(q, rep, full)
	}
	return rep, err
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns what outlives one workload: the built daemon binary, the
// temp root every data-dir and dataset lives under, and the set of live
// children, so that an interrupt or a timeout leaves nothing behind.
type harness struct {
	root    string // repository root (holds cmd/scanrawd)
	bin     string // built scanrawd
	tmp     string // removed on exit
	seed    int64
	seconds float64
	sz      sizes
	buildS  float64

	mu   sync.Mutex
	live map[*daemon]struct{}
}

// findRoot walks up from the working directory to the repository root, so
// the harness runs from the root (as run.sh starts it) or from its own
// directory (go run .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "scanrawd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/scanrawd above the working directory: run from inside the scanraw repository")
		}
		dir = parent
	}
}

func newHarness(seed int64, seconds float64, sz sizes) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "scanrawbench-")
	if err != nil {
		return nil, err
	}
	return &harness{root: root, tmp: tmp, seed: seed, seconds: seconds, sz: sz, live: map[*daemon]struct{}{}}, nil
}

// close kills whatever is still running and removes the temp root.
func (h *harness) close() {
	h.mu.Lock()
	live := make([]*daemon, 0, len(h.live))
	for d := range h.live {
		live = append(live, d)
	}
	h.mu.Unlock()
	for _, d := range live {
		d.kill()
	}
	os.RemoveAll(h.tmp)
}

// build compiles cmd/scanrawd from the checkout's source. Its time is
// reported apart from setup_s: it is the compiler's, not the daemon's.
func (h *harness) build(ctx context.Context) error {
	start := time.Now()
	h.bin = filepath.Join(h.tmp, "scanrawd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", h.bin, "./cmd/scanrawd")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building scanrawd: %w\n%s", err, out)
	}
	h.buildS = time.Since(start).Seconds()
	return h.checkDefaults(ctx)
}

// daemonDefaults are the scanrawd flag defaults the harness relies on without
// passing the flag: the dataset sizes are chosen against -chunk and -cache,
// and the in-process stack of the traced run (inproc.go) is assembled from
// the rest. They live in cmd/scanrawd's flag declarations, which a program
// outside it cannot import.
var daemonDefaults = map[string]string{
	"chunk":           fmt.Sprint(chunkLines),
	"cache":           fmt.Sprint(cacheChunks),
	"workers":         fmt.Sprint(operatorWorkers),
	"consume-workers": "1",
	"colgroups":       "1",
	"policy":          `"speculative"`,
	"spec-policy":     `"payoff"`,
	"stats":           "true",
	"max-concurrent":  fmt.Sprint(maxConcurrent),
	"coalesce":        coalesceWindow.String(),
}

var flagDefault = regexp.MustCompile(`(?m)^\s+-(\S+).*\n.*\(default ([^)]+)\)$`)

// checkDefaults asks the built daemon for its usage text and fails when a
// default the harness copied has changed, so that the copy cannot drift
// silently and skew the layer numbers.
func (h *harness) checkDefaults(ctx context.Context) error {
	usage, _ := exec.CommandContext(ctx, h.bin, "-h").CombinedOutput() // -h exits non-zero on some Go versions
	got := map[string]string{}
	for _, m := range flagDefault.FindAllStringSubmatch(string(usage), -1) {
		got[m[1]] = m[2]
	}
	for name, want := range daemonDefaults {
		if got[name] != want {
			return fmt.Errorf("scanrawd's default for -%s is %q, the harness assumes %s: update benchmark/ to match cmd/scanrawd", name, got[name], want)
		}
	}
	return nil
}

func (h *harness) mkdir(prefix string) (string, error) {
	return os.MkdirTemp(h.tmp, prefix+"-")
}

// daemon is one scanrawd child process.
type daemon struct {
	h      *harness
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    bytes.Buffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts scanrawd on ds with the given data-dir and waits for
// /healthz; the returned duration is spawn -> first 200. Only the table
// flags, -addr and -data-dir are passed: every other knob stays at its
// default, so the daemon runs on FileDisk, unthrottled, at real CPU speed.
func (h *harness) spawn(ctx context.Context, ds *dataset, dataDir string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{h: h, base: "http://" + addr, exited: make(chan struct{})}
	args := append(ds.daemonArgs(), "-addr", addr, "-data-dir", dataDir)
	d.cmd = exec.Command(h.bin, args...)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	// Settle the filesystem first: whatever the previous daemon left for the
	// journal to commit would otherwise land on this one's first fsync.
	syscall.Sync()
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting scanrawd: %w", err)
	}
	h.mu.Lock()
	h.live[d] = struct{}{}
	h.mu.Unlock()
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()

	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			d.forget()
			return nil, 0, fmt.Errorf("scanrawd exited before serving: %v\n%s", d.err, d.log.String())
		case <-ctx.Done():
			d.kill()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (d *daemon) forget() {
	d.h.mu.Lock()
	delete(d.h.live, d)
	d.h.mu.Unlock()
}

// stop sends SIGTERM and waits for the drain to finish: in-flight queries,
// the safeguard flush and the catalog checkpoint. It returns the drain time.
func (d *daemon) stop() (time.Duration, error) {
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, fmt.Errorf("signalling scanrawd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.kill()
		return 0, fmt.Errorf("scanrawd did not drain within 20s\n%s", d.log.String())
	}
	d.forget()
	if d.err != nil {
		return 0, fmt.Errorf("scanrawd exited uncleanly: %v\n%s", d.err, d.log.String())
	}
	return time.Since(start), nil
}

// kill ends the child at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.forget()
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// daemonMetrics is the part of GET /metrics the harness reads.
type daemonMetrics struct {
	Queries           int64   `json:"queries_total"`
	Rejected          int64   `json:"rejected_total"`
	Coalesced         int64   `json:"coalesced_queries_total"`
	WorkerBusyPercent float64 `json:"worker_busy_percent"`
	DiskBusyPercent   float64 `json:"disk_busy_percent"`
	Delivered         struct {
		Cache, DB, Raw, Partial int64
	} `json:"chunks_delivered"`
	ChunksRecovered int `json:"store_chunks_recovered"`
}

func (d *daemon) metrics() (daemonMetrics, error) {
	var m daemonMetrics
	err := d.getJSON("/metrics", &m)
	return m, err
}

// tableStatus is the part of GET /tables the harness reads.
type tableStatus struct {
	FullyLoaded bool `json:"fully_loaded"`
}

func (d *daemon) table() (tableStatus, error) {
	var ts []tableStatus
	if err := d.getJSON("/tables", &ts); err != nil {
		return tableStatus{}, err
	}
	if len(ts) != 1 {
		return tableStatus{}, fmt.Errorf("/tables lists %d tables, want 1", len(ts))
	}
	return ts[0], nil
}

// procUsage reads the child's peak resident set and CPU time from /proc.
// USER_HZ is 100 on every Linux the harness targets.
func (d *daemon) procUsage() (peakRSSMB, cpuMS float64) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	if status, err := os.ReadFile("/proc/" + pid + "/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				peakRSSMB = kb / 1024
			}
		}
	}
	if stat, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the line.
		if i := strings.LastIndexByte(string(stat), ')'); i >= 0 {
			f := strings.Fields(string(stat)[i+1:])
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				cpuMS = (ut + st) * 10
			}
		}
	}
	return peakRSSMB, cpuMS
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			fi, err := e.Info()
			if err != nil {
				return err
			}
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

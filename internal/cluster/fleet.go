package cluster

import (
	"encoding/json"
	"fmt"
	"sort"

	"scanraw/internal/schema"
)

// Fleet configuration: a static description of the peers and which chunk
// ranges of which tables each one owns. Ownership is the routing table the
// coordinator scatters by; it is recorded alongside the durable catalog
// (dbstore.SaveFleetConfig) so a restarted coordinator serves the same
// fleet without re-reading the config file.
//
// Ownership model. A peer owns (table, [lo,hi), base): the local chunk
// range [lo,hi) of its copy of the table's raw file, placed at global
// chunk base `base`. Two deployments fall out of one representation:
//
//   - Replicated file: every peer stages the full raw file; ownership
//     ranges carve it up (base 0, disjoint [lo,hi)). Local chunk IDs are
//     already global.
//   - Split files: every peer stages only its slice of the data (its own
//     smaller file); lo=0, hi=0 (whole file) and base places the slice in
//     the global chunk-ID space. Chunk geometry must align with the split
//     (the split is at a chunk-line multiple).
//
// Peers listing an identical (table, lo, hi, base) tuple are replicas of
// that shard: the coordinator uses the first healthy one and fails over
// to the rest.

// FleetConfig is the JSON fleet description.
type FleetConfig struct {
	Peers  []PeerConfig           `json:"peers"`
	Tables map[string]TableConfig `json:"tables"`
}

// PeerConfig is one worker: its base URL (scheme optional, http assumed)
// and the shard ranges it owns.
type PeerConfig struct {
	Addr string      `json:"addr"`
	Owns []OwnConfig `json:"owns"`
}

// OwnConfig is one owned shard of one table.
type OwnConfig struct {
	Table string `json:"table"`
	// Lo/Hi bound the peer's local chunk range, half-open; Hi 0 means "to
	// end of the peer's file".
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Base is the global chunk ID of the peer's local chunk 0.
	Base int `json:"base"`
}

// TableConfig carries what the coordinator needs to parse queries against
// a table it does not store: the schema specification ("name:type,...").
type TableConfig struct {
	Schema string `json:"schema"`
}

// Assignment is one shard the coordinator scatters to: a global chunk
// range of a table and the peers holding it (replicas beyond the first).
type Assignment struct {
	Table string
	Lo    int // local range within each replica's file
	Hi    int
	Base  int      // global chunk ID of local chunk 0
	Peers []string // replica peer addresses, config order
}

// GlobalLo returns the assignment's first global chunk ID.
func (a *Assignment) GlobalLo() int { return a.Base + a.Lo }

// GlobalHi returns the assignment's global upper bound, or 0 when the
// shard extends to the end of the peer's file.
func (a *Assignment) GlobalHi() int {
	if a.Hi <= 0 {
		return 0
	}
	return a.Base + a.Hi
}

func (a *Assignment) String() string {
	hi := "∞"
	if h := a.GlobalHi(); h > 0 {
		hi = fmt.Sprint(h)
	}
	return fmt.Sprintf("%s[%d,%s)", a.Table, a.GlobalLo(), hi)
}

// Fleet is a validated fleet configuration with its routing index.
type Fleet struct {
	cfg     FleetConfig
	schemas map[string]*schema.Schema
	assigns map[string][]Assignment // table -> shards sorted by GlobalLo
}

// ParseFleet decodes and validates a fleet configuration.
func ParseFleet(data []byte) (*Fleet, error) {
	var cfg FleetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("cluster: malformed fleet config: %v", err)
	}
	return NewFleet(cfg)
}

// NewFleet validates a fleet configuration: peers must be named and
// unique, schemas must parse, every owned shard must reference a declared
// table, and bounded shards of a table must not overlap in global chunk
// space (an overlap would double-count rows).
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: fleet has no peers")
	}
	f := &Fleet{
		cfg:     cfg,
		schemas: make(map[string]*schema.Schema),
		assigns: make(map[string][]Assignment),
	}
	for name, tc := range cfg.Tables {
		sch, err := schema.ParseSpec(tc.Schema)
		if err != nil {
			return nil, fmt.Errorf("cluster: table %q: %v", name, err)
		}
		f.schemas[name] = sch
	}
	seen := make(map[string]bool)
	type shardKey struct {
		table        string
		lo, hi, base int
	}
	shards := make(map[shardKey]*Assignment)
	var order []shardKey
	for _, p := range cfg.Peers {
		if p.Addr == "" {
			return nil, fmt.Errorf("cluster: peer with empty addr")
		}
		if seen[p.Addr] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p.Addr)
		}
		seen[p.Addr] = true
		for _, o := range p.Owns {
			if _, ok := f.schemas[o.Table]; !ok {
				return nil, fmt.Errorf("cluster: peer %q owns undeclared table %q", p.Addr, o.Table)
			}
			if o.Lo < 0 || o.Base < 0 {
				return nil, fmt.Errorf("cluster: peer %q: negative bound in %s[%d,%d)+%d", p.Addr, o.Table, o.Lo, o.Hi, o.Base)
			}
			if o.Hi != 0 && o.Hi <= o.Lo {
				return nil, fmt.Errorf("cluster: peer %q: empty range %s[%d,%d)", p.Addr, o.Table, o.Lo, o.Hi)
			}
			k := shardKey{o.Table, o.Lo, o.Hi, o.Base}
			if a, ok := shards[k]; ok {
				a.Peers = append(a.Peers, p.Addr) // replica
				continue
			}
			shards[k] = &Assignment{Table: o.Table, Lo: o.Lo, Hi: o.Hi, Base: o.Base, Peers: []string{p.Addr}}
			order = append(order, k)
		}
	}
	for _, k := range order {
		a := shards[k]
		f.assigns[a.Table] = append(f.assigns[a.Table], *a)
	}
	for table, as := range f.assigns {
		sort.Slice(as, func(i, j int) bool { return as[i].GlobalLo() < as[j].GlobalLo() })
		// Overlap validation between bounded global ranges; an unbounded
		// shard (Hi 0) overlaps anything starting after it only if that
		// thing exists — flag it.
		for i := 1; i < len(as); i++ {
			prev, cur := as[i-1], as[i]
			if prev.GlobalHi() == 0 || cur.GlobalLo() < prev.GlobalHi() {
				return nil, fmt.Errorf("cluster: table %q: shards %v and %v overlap", table, prev.String(), cur.String())
			}
		}
		f.assigns[table] = as
	}
	return f, nil
}

// Config returns the underlying configuration (for persistence).
func (f *Fleet) Config() FleetConfig { return f.cfg }

// Schema returns the parsed schema of a declared table.
func (f *Fleet) Schema(table string) (*schema.Schema, bool) {
	sch, ok := f.schemas[table]
	return sch, ok
}

// Assignments returns the table's shards in global chunk order, or nil
// when no peer owns the table.
func (f *Fleet) Assignments(table string) []Assignment {
	return f.assigns[table]
}

// PeerAddrs returns every peer address in config order.
func (f *Fleet) PeerAddrs() []string {
	addrs := make([]string, len(f.cfg.Peers))
	for i, p := range f.cfg.Peers {
		addrs[i] = p.Addr
	}
	return addrs
}

// Tables returns the declared table names, sorted.
func (f *Fleet) Tables() []string {
	names := make([]string, 0, len(f.schemas))
	for name := range f.schemas {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

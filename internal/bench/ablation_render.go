package bench

import (
	"fmt"
	"io"
	"time"
)

// RunAblations executes every ablation study and renders one table per
// design choice (the DESIGN.md §5 list).
func RunAblations(sc Scale, w io.Writer) error {
	msRow := func(d time.Duration) string { return ms(d) }

	if r, err := RunAblationSelective(sc); err != nil {
		return fmt.Errorf("selective: %w", err)
	} else {
		t := &Table{
			Title:  "Ablation: selective conversion (4 columns) vs full conversion",
			Header: []string{"variant", "time (ms)"},
			Rows: [][]string{
				{"selective (4 cols)", msRow(r.SelectiveTime)},
				{"full conversion", msRow(r.FullTime)},
			},
			Notes: []string{"CPU-bound configuration (2 workers) so conversion cost is visible"},
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}

	if r, err := RunAblationSafeguard(sc, 3); err != nil {
		return fmt.Errorf("safeguard: %w", err)
	} else {
		t := &Table{
			Title:  "Ablation: safeguard flush on/off (I/O-bound speculative sequence)",
			Header: []string{"query", "loaded with safeguard", "loaded without"},
		}
		for q := range r.WithLoaded {
			t.Rows = append(t.Rows, []string{
				fmtInt(q + 1), fmtInt(r.WithLoaded[q]), fmtInt(r.WithoutLoaded[q]),
			})
		}
		t.Notes = []string{"I/O-bound runs have no disk-idle intervals: the safeguard is the only loading mechanism"}
		if err := t.Render(w); err != nil {
			return err
		}
	}

	if r, err := RunAblationStats(sc); err != nil {
		return fmt.Errorf("stats: %w", err)
	} else {
		t := &Table{
			Title:  "Ablation: min/max chunk skipping (selective second query)",
			Header: []string{"variant", "time (ms)", "chunks skipped"},
			Rows: [][]string{
				{"with statistics", msRow(r.WithStatsTime), fmtInt(r.SkippedChunks)},
				{"without statistics", msRow(r.WithoutStatsTime), "0"},
			},
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}

	if r, err := RunAblationPushdown(sc); err != nil {
		return fmt.Errorf("pushdown: %w", err)
	} else {
		t := &Table{
			Title:  "Ablation: push-down selection in PARSE vs parse-then-filter",
			Header: []string{"variant", "time (ms)"},
			Rows: [][]string{
				{"push-down (convert qualifying tuples only)", msRow(r.PushdownTime)},
				{"standard (convert everything)", msRow(r.StandardTime)},
			},
			Notes: []string{fmt.Sprintf("predicate selectivity %.2f%%; push-down chunks cannot be loaded (§2)", 100*r.Selectivity)},
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}

	if r, err := RunAblationWriteGranularity(sc); err != nil {
		return fmt.Errorf("write granularity: %w", err)
	} else {
		t := &Table{
			Title:  "Ablation: write granularity (CPU-bound first query)",
			Header: []string{"variant", "time (ms)", "chunks loaded"},
			Rows: [][]string{
				{"speculative (oldest-unloaded, one at a time)", msRow(r.SpeculativeTime), fmtInt(r.SpeculativeLoaded)},
				{"buffered (batch on eviction)", msRow(r.BufferedTime), fmtInt(r.BufferedLoaded)},
			},
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

package fixture

// Mirrors the dbstore journaling surface: a loaded-record appender, the
// journalLock opener, the blessed journalAppend forwarder, and blob writes.

type Table struct {
	ckpt    *RWMutex
	ckptMu  RWMutex
	journal Journal
	name    string
}

// journalLock enters the mutate+append critical section (opener idiom).
func (t *Table) journalLock() func() {
	t.ckpt.RLock()
	return t.ckpt.RUnlock
}

// journalAppend is the blessed forwarder; callers hold the lock around it.
func (t *Table) journalAppend(pending []*ChunkMeta, recs ...Record) error {
	return t.journal.Append(recs...)
}

// markLoaded is a loaded-record appender in the loadSegment shape — catalog
// first, then one RecSegment carrying every group's place in the blob, behind
// whatever geometry record is still pending: every call site owes a preceding
// blob write.
func (t *Table) markLoaded(id int, groups []GroupState) error {
	defer t.journalLock()()
	m := t.addSegment(id, groups)
	rec := store.Record{Type: store.RecSegment, Table: t.name, Chunk: id, Seg: "s0-3"}
	for _, g := range groups {
		rec.Groups = append(rec.Groups, store.SegGroup{Cols: g.Cols, Off: g.Off, Len: g.Len})
	}
	return t.journalAppend([]*ChunkMeta{m}, rec)
}

// snapshot builds loaded-records without appending them — the checkpoint
// shape. It re-records segments earlier appends proved durable, so its
// callers owe nothing.
func (t *Table) snapshot(id int) []Record {
	rec := store.Record{Type: store.RecSegment, Table: t.name, Chunk: id}
	return []Record{rec}
}

// Good: a snapshot is not an appender.
func (t *Table) goodSnapshotWithoutWrite(id int) []Record {
	return t.snapshot(id)
}

// Bad: journals the loaded claim with no preceding page write — a crash
// would recover metadata for pages that never hit the disk.
func (t *Table) badClaimWithoutWrite(id int) error {
	return t.markLoaded(id, nil) // want
}

// Good: the page write dominates the claim.
func (t *Table) goodWriteThenClaim(d Disk, id int, page []byte) error {
	if err := d.WriteBlob(pageName(id), page); err != nil {
		return err
	}
	return t.markLoaded(id, nil)
}

// writePage reaches WriteBlob through a helper; callers of it count as
// having written.
func (t *Table) writePage(d Disk, id int, page []byte) error {
	return d.WriteBlob(pageName(id), page)
}

// Good: the blob write is transitive through writePage.
func (t *Table) goodHelperWrite(d Disk, id int, page []byte) error {
	if err := t.writePage(d, id, page); err != nil {
		return err
	}
	return t.markLoaded(id, nil)
}

// Bad: appends outside the checkpoint-exclusion region — a snapshot could
// interleave between the mutate and the append.
func (t *Table) badUnlockedAppend() error {
	return t.journalAppend(nil, store.Record{Type: store.RecComplete, Table: t.name}) // want
}

// Good: an explicit ckpt read-lock taken before the append satisfies the
// discipline too (the SetWorkload shape).
func (t *Table) goodExplicitCkptLock(rec Record) error {
	t.ckptMu.RLock()
	defer t.ckptMu.RUnlock()
	return t.journalAppend(nil, rec)
}

// Good: a justified suppression — the recovery-replay shape, where pages
// were proven durable by the original append.
func (t *Table) replayLoaded(id int) {
	//lint:ignore journalorder fixture mirrors recovery replay: the journal is nil during replay and pages are re-verified afterwards
	_ = t.markLoaded(id, nil)
}

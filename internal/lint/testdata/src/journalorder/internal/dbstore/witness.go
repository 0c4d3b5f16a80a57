package fixture

// Witnesses for what counts as a journal append, a loaded-record, a blob
// writer and a checkpoint-exclusion acquisition.

type Store struct {
	ckptMu  RWMutex
	journal Journal
	tables  []*Table
}

// markLegacy builds an older layout's loaded-record among other literals:
// only a Record whose Type is a loaded kind makes a function an appender.
func (t *Table) markLegacy(id int) error {
	defer t.journalLock()()
	geo := Geometry{Type: id, Rows: 0}
	tags := []string{t.name, "legacy"}
	first := Record{geo.Rows, len(tags)}
	rec := Record{Table: t.name, Type: RecLoadedGroup, Chunk: id}
	return t.journalAppend(nil, first, rec)
}

// Bad: the legacy appender owes the same preceding blob write.
func (t *Table) badLegacyClaim(id int) error {
	return t.markLegacy(id) // want
}

// Bad: a blob write after the claim does not dominate it.
func (t *Table) badWriteAfterClaim(d Disk, id int, page []byte) error {
	if err := t.markLegacy(id); err != nil { // want
		return err
	}
	return d.WriteBlob(pageName(id), page)
}

// writeTwice reaches WriteBlob through writePage: blob-writer status
// propagates through same-package helpers to a fixpoint.
func (t *Table) writeTwice(d Disk, id int, page []byte) error {
	if err := t.writePage(d, id, page); err != nil {
		return err
	}
	return t.writePage(d, id+1, page)
}

// Good: two helpers deep still counts as having written.
func (t *Table) goodTransitiveHelper(d Disk, id int, page []byte) error {
	if err := t.writeTwice(d, id, page); err != nil {
		return err
	}
	return t.markLegacy(id)
}

// Good: a Record of another kind is not a loaded-record; the function is an
// ordinary locked appender and its callers owe no blob write.
func (t *Table) markComplete() error {
	defer t.journalLock()()
	return t.journalAppend(nil, Record{Type: RecComplete, Table: t.name})
}

func (t *Table) goodCompleteWithoutWrite() error {
	return t.markComplete()
}

// Bad: Append on the journal field is a journal append wherever it is
// spelled, and so is Append on a variable bound to the journal.
func (s *Store) badDirectAppend(rec Record) error {
	if err := s.journal.Append(rec); err != nil { // want
		return err
	}
	j, n := s.journal, len(s.tables)
	if n > 0 {
		return j.Append(rec) // want
	}
	return nil
}

// Good: Append on something that is not the journal is not one.
func (s *Store) goodOtherAppend(t *Table) {
	s.tables = append(s.tables, t)
	s.index.Append(t.name)
}

// Good: an exclusive ckpt lock taken first satisfies the discipline, direct
// append and all.
func (s *Store) goodExclusiveLock(rec Record) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.journal.Append(rec)
}

// Bad: the lock is taken after the append it should cover.
func (s *Store) badLockAfterAppend(rec Record) error {
	err := s.journal.Append(rec) // want
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	return err
}

// Bad: a lock that is not the checkpoint lock excludes no snapshot.
func (t *Table) badWrongLock(rec Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.journalAppend(nil, rec) // want
}

// Bad: an append inside a function literal is checked in the literal — the
// enclosing function's lock is not visibly held when the literal runs.
func (t *Table) badAppendInLiteral(rec Record, later func(func() error)) {
	defer t.journalLock()()
	later(func() error {
		return t.journalAppend(nil, rec) // want
	})
}

package lint

// PinBalance enforces the cache pin discipline: every pin taken —
// Acquire/AcquireOldestUnloaded (which return a pinned chunk) and
// PutPinned/insertPinned (which pin their argument) — must be
// matched by an Unpin on every path, or ownership must be transferred
// (chunk handed to a deliverer, sent on a channel, returned). A pinned
// entry can never be evicted, so a dropped pin permanently shrinks the
// binary cache; the race detector cannot see it because pin accounting
// is perfectly synchronized — just wrong.
var PinBalance = &Analyzer{
	Name: "pinbalance",
	Run:  perUnit(pinSpec.check),
}

var pinSpec = &pairSpec{
	analyzer: "pinbalance",
	what:     "pinned chunk",
	verb:     "unpinned",
	acquires: map[string]acqKind{
		"Acquire":               {fromResult: true},
		"AcquireOldestUnloaded": {fromResult: true},
		"PutPinned":             {argIdx: 0},
		"insertPinned":          {argIdx: 0},
	},
	releases: map[string]bool{"Unpin": true},
}

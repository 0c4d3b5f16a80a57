package fixture

// Witnesses for each way a goroutine loop is allowed to end, and for the
// shapes the analyzer leaves alone.

// Good: a named function is not a literal; its body is checked where it is
// declared and spawned with one.
func goodNamedSpawn(w *worker) {
	go w.loop()
}

// Good: an unconditional loop that returns on a condition.
func goodReturnExit(done func() bool) {
	go func() {
		for {
			if done() {
				return
			}
		}
	}()
}

// Good: an unconditional loop left by break.
func goodBreakExit(next func() (int, bool)) {
	go func() {
		for {
			if _, ok := next(); !ok {
				break
			}
		}
	}()
}

// Good: an unconditional loop left by goto.
func goodGotoExit(next func() bool) {
	go func() {
		for {
			if !next() {
				goto out
			}
		}
	out:
		cleanup()
	}()
}

// Good: a bare receive blocks until the producer closes.
func goodReceiveExit(jobs chan int) {
	go func() {
		for {
			handle(<-jobs)
		}
	}()
}

// Good: a panic ends the goroutine (and the process).
func goodPanicExit(step func() error) {
	go func() {
		for {
			if err := step(); err != nil {
				panic(err)
			}
		}
	}()
}

// Good: a condition variable's Wait parks the loop until it is signalled.
func goodCondWait(c *Cond, ready func() bool) {
	go func() {
		for {
			c.Wait()
			if ready() {
				work()
			}
		}
	}()
}

// Bad: continue is not an exit.
func badContinueOnly(skip func() bool) {
	go func() {
		for { // want
			if skip() {
				continue
			}
			work()
		}
	}()
}

// Bad: a return inside a nested literal leaves the literal, not the loop.
func badNestedReturn(each func(func() bool)) {
	go func() {
		for { // want
			each(func() bool { return true })
		}
	}()
}

// Good: a bounded loop is fine when the literal hears a signal elsewhere.
func goodSignalElsewhere(done chan struct{}, n int) {
	go func() {
		for i := 0; i < n; i++ {
			work()
		}
		<-done
	}()
}

// Good: the conditional loop drains a collection with a range inside it.
func goodRangeInside(more func() bool, batch func() []int) {
	go func() {
		for more() {
			for _, j := range batch() {
				handle(j)
			}
		}
	}()
}

// Good: the conditional loop checks the context each round.
func goodCtxDone(ctx Context, more func() bool) {
	go func() {
		for more() {
			if ctx.Done() == nil {
				work()
			}
		}
	}()
}

// Bad: both loops are flagged — the inner one spins, the outer one has no
// signal of its own.
func badNestedLoops(more func() bool) {
	go func() {
		for more() { // want
			for { // want
				work()
			}
		}
	}()
}

package scanraw

import (
	"testing"
	"time"
)

// TestReadBlockedUnderSlowConsume: an engine slower than conversion fills
// the text chunks buffer behind it, and the run reports the time READ spent
// blocked on it — the CPU-bound signal of §3.3. A pipeline that keeps up
// reports none.
func TestReadBlockedUnderSlowConsume(t *testing.T) {
	env := newEnv(t, 1024, 4, nil)
	op := New(env.store, env.table, Config{
		Workers: 1, ChunkLines: 64, CacheChunks: 2, TextBufferChunks: 4,
	})
	first := true
	st, err := op.Run(Request{Columns: []int{0, 1, 2, 3}, Deliver: func(*BinaryChunk) error {
		// Sixteen chunks: the first consume alone outlasts READ filling every
		// buffer in front of it.
		if first {
			first = false
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadBlocked <= 0 {
		t.Errorf("ReadBlocked = %v behind a slow consumer, want > 0", st.ReadBlocked)
	}
	if st.ReadBlocked > st.Duration {
		t.Errorf("ReadBlocked = %v exceeds the run's %v", st.ReadBlocked, st.Duration)
	}

	// Inline (0 workers): READ never waits on a buffer.
	inline := New(env.store, env.table, Config{ChunkLines: 64, CacheChunks: 2})
	st, err = inline.Run(Request{Columns: []int{0}, Deliver: func(*BinaryChunk) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadBlocked != 0 {
		t.Errorf("inline run ReadBlocked = %v, want 0", st.ReadBlocked)
	}
}

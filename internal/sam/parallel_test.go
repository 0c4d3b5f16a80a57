package sam

import (
	"errors"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scanraw/internal/vdisk"
)

func TestBuildBAMIndex(t *testing.T) {
	s := Spec{Reads: 95, Seed: 4, ReadLen: 20}
	d := vdisk.Unlimited()
	if _, err := PreloadBAM(d, "f.bam", s, 20); err != nil {
		t.Fatal(err)
	}
	idx, err := BuildBAMIndex(d, "f.bam")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 5 { // 20+20+20+20+15
		t.Fatalf("blocks = %d, want 5", len(idx))
	}
	if idx[0] != int64(len(bamMagic)) {
		t.Errorf("first block offset = %d", idx[0])
	}
	if !sort.SliceIsSorted(idx, func(i, j int) bool { return idx[i] < idx[j] }) {
		t.Error("offsets not ascending")
	}
	// Bad magic.
	d.Preload("bad", []byte("nope-not-bam"))
	if _, err := BuildBAMIndex(d, "bad"); err == nil {
		t.Error("bad magic should fail")
	}
}

func TestDecodeParallelMatchesSequential(t *testing.T) {
	s := Spec{Reads: 333, Seed: 6, ReadLen: 24}
	d := vdisk.Unlimited()
	if _, err := PreloadBAM(d, "f.bam", s, 64); err != nil {
		t.Fatal(err)
	}
	idx, err := BuildBAMIndex(d, "f.bam")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got := map[int][]Read{}
		var paced atomic.Int64 // pace runs on worker goroutines
		err = DecodeParallel(d, "f.bam", idx, workers,
			func(cpu time.Duration) { paced.Add(int64(cpu)) },
			func(id int, reads []Read) error {
				got[id] = reads
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(idx) {
			t.Fatalf("workers=%d: decoded %d blocks, want %d", workers, len(got), len(idx))
		}
		// Reassemble in block order and compare to the spec.
		i := 0
		for b := 0; b < len(idx); b++ {
			for _, r := range got[b] {
				if r != s.ReadAt(i) {
					t.Fatalf("workers=%d read %d mismatch", workers, i)
				}
				i++
			}
		}
		if i != s.Reads {
			t.Fatalf("workers=%d: %d reads total", workers, i)
		}
		if paced.Load() <= 0 {
			t.Errorf("workers=%d: pace callback never received CPU time", workers)
		}
	}
}

func TestDecodeParallelErrorPropagates(t *testing.T) {
	s := Spec{Reads: 100, Seed: 1, ReadLen: 16}
	d := vdisk.Unlimited()
	if _, err := PreloadBAM(d, "f.bam", s, 25); err != nil {
		t.Fatal(err)
	}
	idx, err := BuildBAMIndex(d, "f.bam")
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	calls := 0
	err = DecodeParallel(d, "f.bam", idx, 2, nil, func(int, []Read) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
	// Disk failure mid-decode.
	d.SetFailure(func(op, name string) error { return vdisk.ErrInjected })
	if err := DecodeParallel(d, "f.bam", idx, 2, nil, func(int, []Read) error { return nil }); !errors.Is(err, vdisk.ErrInjected) {
		t.Errorf("disk failure err = %v", err)
	}
}

// A block header is 12 bytes of the file's own claims about what follows;
// each must be bounded before anything is sized from it. A header of ff ff ff
// ff used to ask for 4 GiB three times over.
func TestHostileBlockHeader(t *testing.T) {
	good, err := BAMBytes(Spec{Reads: 10, Seed: 2, ReadLen: 16}, 10)
	if err != nil {
		t.Fatal(err)
	}
	hdr := len(bamMagic)
	for _, tc := range []struct {
		name  string
		field int // byte offset of the uint32 within the header
		want  string
	}{
		{"compressed length", 0, "compressed bytes"},
		{"inflated length", 4, "beyond what deflate can expand"},
		{"record count", 8, "records in"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := append([]byte(nil), good...)
			copy(blob[hdr+tc.field:], []byte{0xff, 0xff, 0xff, 0xff})
			d := vdisk.Unlimited()
			d.Preload("f.bam", blob)

			r, err := NewBAMReader(d, "f.bam")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.NextBlock(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("NextBlock: want an error naming the %s (%q), got %v", tc.name, tc.want, err)
			}
			err = DecodeParallel(d, "f.bam", BlockIndex{int64(hdr)}, 2, nil, func(int, []Read) error { return nil })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("DecodeParallel: want an error naming the %s (%q), got %v", tc.name, tc.want, err)
			}
		})
	}
}

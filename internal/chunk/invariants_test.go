//go:build invariants

package chunk

import (
	"testing"

	"scanraw/internal/schema"
)

func TestDoubleRecycleVectorPanics(t *testing.T) {
	v := GetVector(schema.Int64, 8)
	PutVector(v)
	defer func() {
		if recover() == nil {
			t.Fatal("second PutVector of the same vector did not panic")
		}
	}()
	PutVector(v)
}

func TestDoubleRecyclePositionalMapPanics(t *testing.T) {
	m := GetPositionalMap(8, 2)
	PutPositionalMap(m)
	defer func() {
		if recover() == nil {
			t.Fatal("second PutPositionalMap of the same map did not panic")
		}
	}()
	PutPositionalMap(m)
}

func TestOutstandingCountersBalance(t *testing.T) {
	vBase, mBase := OutstandingVectors(), OutstandingMaps()

	v := GetVector(schema.Float64, 4)
	m := GetPositionalMap(4, 2)
	if got := OutstandingVectors(); got != vBase+1 {
		t.Errorf("OutstandingVectors = %d, want %d", got, vBase+1)
	}
	if got := OutstandingMaps(); got != mBase+1 {
		t.Errorf("OutstandingMaps = %d, want %d", got, mBase+1)
	}

	PutVector(v)
	PutPositionalMap(m)
	if got := OutstandingVectors(); got != vBase {
		t.Errorf("OutstandingVectors after release = %d, want %d", got, vBase)
	}
	if got := OutstandingMaps(); got != mBase {
		t.Errorf("OutstandingMaps after release = %d, want %d", got, mBase)
	}
}

// SetColumn refuses a vector whose codes no longer describe its strings: a
// code past the dictionary, a row that is not its entry, a code too few.
func TestSetColumnChecksCodes(t *testing.T) {
	sch := schema.MustNew(schema.Column{Name: "s", Type: schema.Str})
	for name, breakIt := range map[string]func(v *Vector){
		"code past the dictionary": func(v *Vector) { v.Codes[3] = byte(len(v.Dict)) },
		"row not its entry":        func(v *Vector) { v.Strs[5] = "elsewhere" },
		"codes short":              func(v *Vector) { v.Codes = v.Codes[:len(v.Codes)-1] },
	} {
		t.Run(name, func(t *testing.T) {
			v, err := DecodeVector(EncodeVector(pageKinds(64)["dictionary-string"]))
			if err != nil {
				t.Fatal(err)
			}
			bc := NewBinary(sch, 0, 64)
			if err := bc.SetColumn(0, v); err != nil {
				t.Fatal(err)
			}
			defer PutVector(v)
			breakIt(v)
			defer func() {
				if recover() == nil {
					t.Fatal("SetColumn installed a vector whose codes do not describe its strings")
				}
			}()
			_ = NewBinary(sch, 1, 64).SetColumn(0, v)
		})
	}
}

// A decode that fails after taking its vector (a dictionary code past the
// dictionary is only found while filling) hands the vector back; one that
// succeeds leaves exactly one outstanding until its owner puts it.
func TestDecodeFailureReturnsVector(t *testing.T) {
	p := EncodeVector(pageKinds(64)["dictionary-string"])
	base := OutstandingVectors()
	v, err := DecodeVector(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := OutstandingVectors(); got != base+1 {
		t.Errorf("OutstandingVectors after a decode = %d, want %d", got, base+1)
	}
	PutVector(v)
	p[len(p)-1] = 0xFF
	if _, err := DecodeVector(p); err == nil {
		t.Fatal("a dictionary code out of range decoded")
	}
	if got := OutstandingVectors(); got != base {
		t.Errorf("OutstandingVectors after a failed decode = %d, want %d", got, base)
	}
}

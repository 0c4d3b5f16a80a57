package scanraw

import "testing"

// TestParsePolicyNames: every name a policy prints parses back to it (the
// /query stats report String(), and an operator copies what they see into
// a flag), the short flag spellings keep working, and junk is an error.
func TestParsePolicyNames(t *testing.T) {
	for _, p := range []WritePolicy{ExternalTables, FullLoad, BufferedLoad, Speculative, Invisible} {
		if got, err := ParseWritePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParseWritePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for name, want := range map[string]WritePolicy{
		"external": ExternalTables, "fullload": FullLoad, "load": FullLoad,
		"buffered": BufferedLoad, "speculative": Speculative, "invisible": Invisible,
	} {
		if got, err := ParseWritePolicy(name); err != nil || got != want {
			t.Errorf("ParseWritePolicy(%q) = %v, %v", name, got, err)
		}
	}
	for _, p := range []SpecPolicy{SpecScan, SpecPayoff} {
		if got, err := ParseSpecPolicy(p.String()); err != nil || got != p {
			t.Errorf("ParseSpecPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, bad := range []string{"", " ", "Speculative", "full load", "WritePolicy(9)"} {
		if _, err := ParseWritePolicy(bad); err == nil {
			t.Errorf("ParseWritePolicy(%q) should fail", bad)
		}
		if _, err := ParseSpecPolicy(bad); err == nil {
			t.Errorf("ParseSpecPolicy(%q) should fail", bad)
		}
	}
}

package fixture

// A range statement with no key crashed the gate: the first-use scan handed
// its absent key to the syntax walker. It must lint clean.
var spare *Vector

func drain(t chan struct{}) {
	for range t {
	}
	PutVector(spare)
}

package fixture

// Directories named testdata are not linted: this drop carries no marker,
// so the fixture test fails if the walk ever comes here.
func unseenDrop(n int) error {
	v := GetVector(n)
	if n < 0 {
		return errNegative
	}
	PutVector(v)
	return nil
}

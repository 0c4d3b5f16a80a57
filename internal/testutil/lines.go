package testutil

import "bytes"

// CountLines returns the number of newline-terminated lines in data,
// counting a trailing fragment without '\n' as a line: the Lines a text
// chunk carved from data would carry.
func CountLines(data []byte) int {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// outputs collects what a workload produced — rendered figures, CSV tables
// and the final layer statistics — as named sections, in production order.
// Its digest is what "the simulator still computes the same thing" means.
type outputs struct {
	b []byte
}

// text adds a rendered report under a section name, canonicalised so that
// line-ending and trailing-blank differences do not change the digest.
func (o *outputs) text(name, body string) {
	o.b = fmt.Appendf(o.b, "== %s\n%s", name, canonText(body))
}

// value adds a statistics struct as its JSON encoding (fields in declaration
// order, so the encoding is canonical for a given type).
func (o *outputs) value(name string, v any) {
	enc, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: digest section %s: %v", name, err))
	}
	o.text(name, string(enc))
}

func (o *outputs) digest() string {
	h := sha256.Sum256(o.b)
	return hex.EncodeToString(h[:])
}

// canonText normalises a report: CRLF and CR become LF, blanks at line ends
// go, and the text ends in exactly one newline.
func canonText(s string) string {
	s = strings.ReplaceAll(s, "\r\n", "\n")
	s = strings.ReplaceAll(s, "\r", "\n")
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	return strings.TrimRight(strings.Join(lines, "\n"), "\n") + "\n"
}

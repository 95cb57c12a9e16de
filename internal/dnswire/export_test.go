package dnswire

import (
	"cmp"
	"fmt"
	"strings"
)

// unpackName decodes a (possibly compressed) name from msg starting at
// off. It returns the canonical presentation form and the offset of the
// first byte after the name in the original (non-pointer) stream.
func unpackName(msg []byte, off int) (string, int, error) {
	buf, end, err := appendUnpackedName(nil, msg, off)
	if err != nil {
		return "", 0, err
	}
	if len(buf) == 0 {
		return ".", end, nil
	}
	return string(buf), end, nil
}

// Summary renders a compact one-line description, useful in logs.
func (m *Message) Summary() string {
	var sb strings.Builder
	if m.Response {
		fmt.Fprintf(&sb, "resp %s", m.Rcode)
	} else {
		sb.WriteString("query")
	}
	for _, q := range m.Question {
		fmt.Fprintf(&sb, " %s", q)
	}
	fmt.Fprintf(&sb, " an=%d au=%d ad=%d", len(m.Answer), len(m.Authority), len(m.Additional))
	return sb.String()
}

// canonicalNameCompareSplit is CanonicalNameCompare by splitting both
// canonicalised names into label slices: correct for any input, but it
// allocates on every call. It is the oracle the in-place comparison is
// tested against.
func canonicalNameCompareSplit(a, b string) int {
	la, lb := SplitLabels(CanonicalName(a)), SplitLabels(CanonicalName(b))
	i, j := len(la)-1, len(lb)-1
	for i >= 0 && j >= 0 {
		if c := strings.Compare(la[i], lb[j]); c != 0 {
			return c
		}
		i--
		j--
	}
	return cmp.Compare(i, j)
}

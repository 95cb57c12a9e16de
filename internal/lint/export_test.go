package lint

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ParseJSONLine decodes one JSONL line produced by JSONLine.
func ParseJSONLine(line []byte) (Finding, error) {
	var jf jsonFinding
	dec := json.NewDecoder(strings.NewReader(string(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jf); err != nil {
		return Finding{}, fmt.Errorf("lint: bad finding line: %w", err)
	}
	f := Finding{Check: jf.Check, Msg: jf.Msg}
	f.Pos.Filename = jf.File
	f.Pos.Line = jf.Line
	return f, nil
}

package report

import (
	"encoding/json"
	"fmt"
)

// Checkpoint serialization for the streaming accumulator. A resumed
// scan must render the same Tables 1–3 as an uninterrupted run without
// re-reading the already-exported observations, so the whole Aggregate
// round-trips through the checkpoint file. The enum-keyed maps are
// keyed by the enums' stable names (their TextMarshaler forms): raw
// integer keys would silently rot whenever the classify enums are
// reordered.

// StateVersion is the aggregate-state wire version, bumped on
// incompatible changes. A merge or resume across mismatched versions is
// refused: summing tallies whose meaning drifted between binaries would
// corrupt every table silently.
const StateVersion = 1

// MarshalState encodes the accumulator for embedding in a scan
// checkpoint: the Aggregate itself inside a state_version envelope.
func (a *Aggregate) MarshalState() ([]byte, error) {
	data, err := json.Marshal(struct {
		Version int `json:"state_version"`
		*Aggregate
	}{StateVersion, a})
	if err != nil {
		return nil, fmt.Errorf("report: encoding aggregate state: %w", err)
	}
	return data, nil
}

// UnmarshalState decodes a checkpointed accumulator. Unknown status or
// bucket names are refused rather than dropped: a silently incomplete
// tally would corrupt every resumed table.
func UnmarshalState(data []byte) (*Aggregate, error) {
	var st struct {
		Version int `json:"state_version"`
		Aggregate
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("report: parsing aggregate state: %w", err)
	}
	if st.Version != StateVersion {
		return nil, fmt.Errorf("report: aggregate state version %d, this binary reads %d", st.Version, StateVersion)
	}
	// Folding the decoded tallies into a fresh accumulator drops null
	// operator entries and gives maps the wire left null or absent
	// their empty value, so the result is one Add can continue.
	a := NewAggregate()
	a.Merge(&st.Aggregate)
	return a, nil
}

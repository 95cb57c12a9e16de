package report

// Shard-state merging. A sharded scan runs N worker processes over
// disjoint contiguous slices of the zone space; each worker checkpoints
// its own Aggregate. Because every tally in the Aggregate is a sum over
// independent per-zone contributions, recombining shards is pure
// addition — Merge is commutative and associative, so the coordinator
// may fold shard states in any order and still render the exact tables
// a single-process run over the whole zone list would have produced
// (the property the conformance battery in internal/shard asserts at
// the byte level).

// Merge folds the tallies of b into a. Both aggregates must describe
// disjoint zone sets (e.g. different shards of one scan); merging
// overlapping sets double-counts, which nothing here can detect.
func (a *Aggregate) Merge(b *Aggregate) {
	a.Total += b.Total
	a.Unresolved += b.Unresolved
	for k, v := range b.ByStatus {
		a.ByStatus[k] += v
	}
	for k, v := range b.ByBucket {
		a.ByBucket[k] += v
	}
	for name, op := range b.Operators {
		if op == nil {
			continue
		}
		a.op(name).merge(op)
	}
	a.CDSCounts.add(b.CDSCounts)
	a.Cost.Add(b.Cost)
}

// merge adds another shard's counts for the same operator, or one
// operator's counts into a Table 3 column.
func (s *OperatorStats) merge(o *OperatorStats) {
	s.Domains += o.Domains
	s.Unsigned += o.Unsigned
	s.Secured += o.Secured
	s.Invalid += o.Invalid
	s.Islands += o.Islands
	s.CDS += o.CDS
	s.DeleteIslands += o.DeleteIslands
	s.WithSignal += o.WithSignal
	s.AlreadySecured += o.AlreadySecured
	s.CannotBootstrap += o.CannotBootstrap
	s.DeletionRequest += o.DeletionRequest
	s.InvalidDNSSEC += o.InvalidDNSSEC
	s.Potential += o.Potential
	s.Incorrect += o.Incorrect
	s.Correct += o.Correct
}

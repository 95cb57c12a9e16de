# Summary and gate of a paired A/B benchmark run (scripts/bench_ab.sh).
#
#   sort -k2,2 -k1,1 -k4,4g rows | awk -v spec=BENCHMARK.json -f scripts/bench_summary.awk
#
# Each input row is "side metric seed value", side being "parent" or
# "change"; the sort groups a metric's values per side in ascending
# order. Prints per metric both medians, their ratio (change/parent),
# the pairs the change won (by the metric's "better" direction in spec;
# a tie counts for neither side) and each side's quartiles with its
# min–max in brackets. Exits 1, after one "regression:" line per
# offence, when an end-to-end metric's change median is worse than the
# parent's by more than that metric's "bound" in spec, or when the
# change's runs failed more operations in total than the parent's.
BEGIN {
	# Metrics whose "better" is "higher"; every other one (and "failed")
	# is better lower. A "bound" follows its metric's "name".
	while ((getline l < spec) > 0) {
		if (match(l, /"name": *"[^"]*"/)) {
			name = substr(l, RSTART, RLENGTH)
			sub(/^"name": *"/, "", name)
			sub(/"$/, "", name)
		}
		if (l ~ /"better": *"higher"/) higher[name] = 1
		if (match(l, /"bound": *[0-9.eE+-]+/)) {
			b = substr(l, RSTART, RLENGTH)
			sub(/^"bound": */, "", b)
			bound[name] = b + 0
		}
	}
	bound["failed"] = 0
}
{
	key = $2 SUBSEP $1
	if (!($2 in seen)) { seen[$2] = 1; order[++nm] = $2 }
	v[key, ++n[key]] = $4
	sum[key] += $4
	pair[$2, $1, $3] = $4
	seeds[$3] = 1
}
# q: the p-quantile of one side, interpolating between sorted values.
function q(key, p, c, h, lo) {
	c = n[key]; h = 1 + (c - 1) * p; lo = int(h)
	return lo >= c ? v[key, c] : v[key, lo] + (h - lo) * (v[key, lo + 1] - v[key, lo])
}
function spread(key) {
	return sprintf("%.5g-%.5g [%.5g-%.5g]", q(key, .25), q(key, .75), v[key, 1], v[key, n[key]])
}
END {
	printf "%-16s %12s %12s %7s %5s   %-35s %s\n", "metric", "parent", "change", "ratio", "won",
		"parent q1-q3 [min-max]", "change q1-q3 [min-max]"
	for (i = 1; i <= nm; i++) {
		m = order[i]; p = m SUBSEP "parent"; c = m SUBSEP "change"
		won = 0; np = 0
		for (s in seeds) {
			if (!((m, "parent", s) in pair) || !((m, "change", s) in pair)) continue
			np++
			d = pair[m, "change", s] - pair[m, "parent", s]
			if ((m in higher) ? d > 0 : d < 0) won++
		}
		ratio = q(p, .5) != 0 ? sprintf("%.3f", q(c, .5) / q(p, .5)) : "-"
		printf "%-16s %12.6g %12.6g %7s %5s   %-35s %s\n", m, q(p, .5), q(c, .5), ratio,
			won "/" np, spread(p), spread(c)
		if (!(m in bound) || !n[p] || !n[c]) continue
		if (m == "failed") {
			worse = sum[c] > sum[p]
			ratio = sum[c] " vs " sum[p]
		} else if (m in higher)
			worse = q(c, .5) < q(p, .5) * (1 - bound[m])
		else
			worse = q(c, .5) > q(p, .5) * (1 + bound[m])
		if (worse) regressions[++nr] = sprintf("regression: %s %s (bound %g)", m, ratio, bound[m])
	}
	for (i = 1; i <= nr; i++) print regressions[i]
	if (nr) exit 1
}

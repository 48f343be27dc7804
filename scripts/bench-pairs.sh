#!/usr/bin/env bash
# Compares one benchmark workload between a base revision and this
# checkout in alternating pairs of runs:
#
#   bash scripts/bench-pairs.sh BASE WORKLOAD [PAIRS] [SECONDS]
#   make bench-pairs BASE=HEAD~ WORKLOAD=paperflow PAIRS=10 SECONDS=10
#
# Run from the root of the checkout. BASE is checked out in a git
# worktree under .bench_build, removed on exit; both sides build and
# run through perfbench/run.sh, each with its own build directory under
# .bench_build/pairs. Pair i runs both sides with seed i for SECONDS
# each, base first in odd pairs and the checkout first in even ones.
# The summary gives each side's round_p50_ms and setup_s medians and
# quartiles, and the number of pairs in which the checkout's
# round_p50_ms was lower. Any run without "correct":true and
# "failed":0 fails the comparison.
set -euo pipefail

base=${1:?usage: bench-pairs.sh BASE WORKLOAD [PAIRS] [SECONDS]}
workload=${2:?usage: bench-pairs.sh BASE WORKLOAD [PAIRS] [SECONDS]}
pairs=${3:-10}
seconds=${4:-10}

root=$(pwd)
out=$root/.bench_build/pairs
src=$root/.bench_build/pairs-base-src
mkdir -p "$out"
rm -f "$out/base.tsv" "$out/change.tsv"

git worktree remove --force "$src" 2>/dev/null || rm -rf "$src"
git worktree prune
git worktree add --detach "$src" "$base" >/dev/null
trap 'git worktree remove --force "$src"; git worktree prune' EXIT
trap 'exit 130' INT TERM

# run SIDE SEED appends "seed round_p50_ms setup_s" to $out/SIDE.tsv.
run() {
	local side=$1 seed=$2 dir=$root line
	[ "$side" = base ] && dir=$src
	if ! line=$(cd "$dir" && CARGO_TARGET_DIR=$out/$side bash perfbench/run.sh \
		--workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1); then
		echo "bench-pairs: $side run with seed $seed failed" >&2
		exit 1
	fi
	case $line in
	*'"correct":true,'*'"failed":0,'*) ;;
	*)
		echo "bench-pairs: $side run with seed $seed did not answer correctly: $line" >&2
		exit 1
		;;
	esac
	echo "$line" | awk -v seed="$seed" '{
		p50 = $0; sub(/.*"round_p50_ms":\{"value":/, "", p50); sub(/,.*/, "", p50)
		setup = $0; sub(/.*"setup_s":\{"value":/, "", setup); sub(/,.*/, "", setup)
		print seed, p50, setup
	}' >>"$out/$side.tsv"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run base "$i"
		run change "$i"
	else
		run change "$i"
		run base "$i"
	fi
done

# quartiles COLUMN FILE prints the median and quartiles of a column,
# interpolating between order statistics as perfbench does.
quartiles() {
	cut -d' ' -f"$1" "$2" | sort -g | awk '
		{ v[NR] = $1 }
		function q(p,   pos, lo) {
			pos = p * (NR - 1); lo = int(pos)
			return lo + 1 >= NR ? v[NR] : v[lo + 1] + (pos - lo) * (v[lo + 2] - v[lo + 1])
		}
		END { printf "median %.4g (q1 %.4g, q3 %.4g)", q(0.5), q(0.25), q(0.75) }'
}

echo "bench-pairs: $workload, $pairs pairs of ${seconds} s, base $base ($(git rev-parse --short "$base")) against the checkout"
echo "seed  base_round_p50_ms  change_round_p50_ms"
paste -d' ' "$out/base.tsv" "$out/change.tsv" | awk '{ printf "%4d  %17.1f  %19.1f\n", $1, $2, $5 }'
echo "round_p50_ms  base:   $(quartiles 2 "$out/base.tsv")"
echo "round_p50_ms  change: $(quartiles 2 "$out/change.tsv")"
echo "setup_s       base:   $(quartiles 3 "$out/base.tsv")"
echo "setup_s       change: $(quartiles 3 "$out/change.tsv")"
paste -d' ' "$out/base.tsv" "$out/change.tsv" |
	awk '$5 < $2 { won++ } END { printf "change wins %d of %d pairs (lower round_p50_ms; ties count for neither)\n", won, NR }'

#!/usr/bin/env bash
# loc.sh prints the non-test Go lines of each top-level package outside
# bench/ — internal/<pkg> with its subpackages, cmd/<tool>, examples,
# and the root package — and their total, then the lines of the three
# documents (DESIGN.md, EXPERIMENTS.md, README.md). Given a git revision
# it prints that revision's counts, the working tree's and the
# difference, so a change's line delta is a number:
#
#	scripts/loc.sh            # the working tree
#	scripts/loc.sh main       # main, the working tree, and the delta
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

# lines REV prints "path lines" for every non-test Go file outside
# bench/ in revision REV, or in the working tree when REV is empty.
lines() {
	if [ -n "$1" ]; then
		git ls-tree -r --name-only "$1"
	else
		git ls-files --cached --others --exclude-standard
	fi | grep '\.go$' | grep -v '_test\.go$' | grep -v '^bench/' | while read -r f; do
		if [ -n "$1" ]; then
			printf '%s %s\n' "$f" "$(git show "$1:$f" | wc -l)"
		elif [ -f "$f" ]; then
			printf '%s %s\n' "$f" "$(wc -l <"$f")"
		fi
	done
}

# by_package sums "path lines" into "package lines", sorted.
by_package() {
	awk '{
		n = split($1, p, "/")
		k = n == 1 ? "." : (n > 2 && (p[1] == "internal" || p[1] == "cmd")) ? p[1] "/" p[2] : p[1]
		s[k] += $2
	} END { for (k in s) print k, s[k] }' | sort
}

docs="DESIGN.md EXPERIMENTS.md README.md"

if [ $# -eq 0 ]; then
	lines "" | by_package | awk '
		{ t += $2; printf "%-20s %7d\n", $1, $2 }
		END { printf "%-20s %7d\n", "total", t }'
	for f in $docs; do
		printf '%-20s %7d\n' "$f" "$(wc -l <"$f")"
	done
else
	join -a1 -a2 -e0 -o 0,1.2,2.2 <(lines "$1" | by_package) <(lines "" | by_package) | awk -v rev="$1" '
		BEGIN { printf "%-20s %7s %7s %7s\n", "package", rev, "tree", "delta" }
		{ a += $2; b += $3; printf "%-20s %7d %7d %+7d\n", $1, $2, $3, $3 - $2 }
		END { printf "%-20s %7d %7d %+7d\n", "total", a, b, b - a }'
	for f in $docs; do
		a=$( (git show "$1:$f" 2>/dev/null || true) | wc -l)
		b=$(wc -l <"$f")
		printf '%-20s %7d %7d %+7d\n' "$f" "$a" "$b" $((b - a))
	done
fi

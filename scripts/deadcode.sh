#!/usr/bin/env bash
# Linker audit: every non-test function and method declared under internal/
# must be linked into some binary, or be named in scripts/deadcode.allow.
#
# It builds every main package that `go list ./...` reports, plus perfbench
# from its own module, with inlining off (-gcflags=all=-l) into a temp dir,
# and takes the union of the functions they link (`go tool nm`, generic
# "[...]" suffixes stripped: a generic function links only as its
# instantiations). The linker keeps only what a binary can reach, so a
# declared function missing from that union runs only under `go test`.
#
#   bash scripts/deadcode.sh
#
# Exits 1 and lists each such function (file:line, name, length) unless the
# allowlist holds it; an allowlist line that names a linked or undeclared
# function is an error too, so the list cannot go stale.
set -euo pipefail
cd "$(dirname "$0")/.."

module=$(go list -m)
allow=scripts/deadcode.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
# shellcheck disable=SC2086
go build -gcflags=all=-l -o "$tmp/bin/" $mains
(cd perfbench && go build -gcflags=all=-l -o "$tmp/bin/perfbench" .)

for b in "$tmp"/bin/*; do
	go tool nm -sort none "$b"
done | awk -v prefix="$module/internal/" '
	$2 == "T" || $2 == "t" {
		sub(/^[ \t]*[0-9a-f]*[ \t]+[Tt][ \t]+/, "")
		if (index($0, prefix) != 1) next
		while (match($0, /\[[^][]*\]/)) $0 = substr($0, 1, RSTART - 1) substr($0, RSTART + RLENGTH)
		print
	}' | sort -u >"$tmp/linked"

go run scripts/deadcode_decls.go "$module" internal | sort >"$tmp/declared"
if [ -f "$allow" ]; then
	awk '!/^[ \t]*(#|$)/ { print $1 }' "$allow" | sort -u >"$tmp/allowed"
else
	: >"$tmp/allowed"
fi

awk -v linked="$tmp/linked" -v allowed="$tmp/allowed" -v module="$module/" '
	FILENAME == linked { in_bin[$0] = 1; next }
	FILENAME == allowed { ok[$0] = 1; next }
	{
		declared[$1] = 1
		if ($1 in in_bin) next
		if ($1 in ok) { held++; next }
		name = $1; sub("^" module "internal/", "", name)
		printf "%s: %s (%d lines) is in no binary\n", $2, name, $3
		bad++; lines += $3
	}
	END {
		for (s in ok) {
			if (!(s in declared)) { printf "%s: allowlisted but not declared under internal/\n", s; stale++ }
			else if (s in in_bin) { printf "%s: allowlisted but linked; drop it from the allowlist\n", s; stale++ }
		}
		printf "deadcode: %d unlinked function(s), %d lines, outside the allowlist; %d allowlisted; %d stale allowlist line(s)\n", bad, lines, held, stale
		exit (bad + stale > 0)
	}' "$tmp/linked" "$tmp/allowed" "$tmp/declared"

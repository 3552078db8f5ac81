#!/usr/bin/env bash
# The ROADMAP's ruler, as one command: Go lines in the current directory's
# tree, split the way the roadmap reads them. The first figure is the one
# "small" is judged by; lines moved into _test.go files or into benchmark/
# leave it without being a reduction, so the other two are printed beside
# it. Run from the root of any checkout:
#
#   ./scripts/loc.sh                          # this tree
#   (cd /tmp/base-src && /path/to/loc.sh)     # another commit's tree
set -euo pipefail

count() { # count <find predicates...>: total lines of the matching .go files
	find . -name '*.go' "$@" -print0 | xargs -0 -r cat | wc -l
}

printf '%7d  non-test Go lines outside benchmark/\n' "$(count -not -name '*_test.go' -not -path './benchmark/*')"
printf '%7d  test Go lines outside benchmark/\n' "$(count -name '*_test.go' -not -path './benchmark/*')"
printf '%7d  Go lines in benchmark/\n' "$(count -path './benchmark/*')"

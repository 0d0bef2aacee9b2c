#!/bin/sh
# `go test -run FILTER` exits 0 when FILTER matches nothing, so renaming a test
# silently un-gates the CI job that names it. This checks every
# `go test ... -run FILTER ... ./pkgs` in the workflow against `go test -list`
# and fails if one of them — or one `|` alternative of one, the filters here
# being plain alternations — selects no test. (`-run='^$'`, the fuzz jobs' way
# of running no test on purpose, is skipped.)
set -eu
cd "$(dirname "$0")/.."
yml=.github/workflows/ci.yml
fail=0
n=0
# One line per `go test` command: the workflow folded onto one line, broken
# before each `go test`, cut at the start of the next step.
cmds=$(tr '\n' ' ' <"$yml" | sed 's/go test/\ngo test/g' | grep '^go test' | sed 's/ - name:.*//')
while IFS= read -r cmd; do
	pat=$(printf '%s\n' "$cmd" | sed -n "s/.* -run[ =]'\([^']*\)'.*/\1/p")
	[ -n "$pat" ] || pat=$(printf '%s\n' "$cmd" | sed -n 's/.* -run[ =]\([^ ]*\).*/\1/p')
	if [ -z "$pat" ] || [ "$pat" = '^$' ]; then
		continue
	fi
	pkgs=$(printf '%s\n' "$cmd" | tr ' ' '\n' | grep '^\./' | tr '\n' ' ')
	n=$((n + 1))
	# shellcheck disable=SC2086
	listed=$(${GO:-go} test -list "$pat" $pkgs)
	for alt in $(printf '%s\n' "$pat" | tr '|' ' '); do
		if ! printf '%s\n' "$listed" | grep '^Test' | grep -Eq -- "$alt"; then
			echo "ci-filters: '$alt' (of -run '$pat') matches no test in $pkgs" >&2
			fail=1
		fi
	done
done <<EOT
$cmds
EOT
if [ "$n" -eq 0 ]; then
	echo "ci-filters: found no 'go test -run' command in $yml" >&2
	exit 1
fi
[ "$fail" -eq 0 ] && echo "ci-filters: $n filters, each selects at least one test"
exit "$fail"

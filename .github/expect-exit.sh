#!/usr/bin/env bash
# expect-exit.sh N CMD...: CMD must exit with status exactly N and print
# no Python traceback.  `if CMD; then exit 1; fi` accepts any non-zero
# status, so a crash (1 with a traceback) or a usage error (2) would pass
# for "the seeded-bad fixture failed as expected".  Analyzer statuses:
# 0 clean, 1 findings, 2 usage error (docs/linting.md, "Analyzer output
# contract").
set -u
want=$1
shift
stderr=$(mktemp)
trap 'rm -f "$stderr"' EXIT
"$@" 2> "$stderr"
got=$?
cat "$stderr" >&2
if [ "$got" -ne "$want" ]; then
  echo "expected exit status $want, got $got: $*" >&2
  exit 1
fi
if grep -q Traceback "$stderr"; then
  echo "traceback on stderr: $*" >&2
  exit 1
fi

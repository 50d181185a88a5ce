#!/usr/bin/env bash
# CI entry point: every workload for at most two seconds with all the
# correctness checks and the traced run, no bounds enforced. Exits
# non-zero when a check fails. Not wired into .github/workflows yet.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --smoke "$@"

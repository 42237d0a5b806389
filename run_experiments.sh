#!/bin/sh
# Regenerates every table and figure of the paper plus the extension
# experiments: builds the one runner, then runs each id of
# `afs-bench list` in its own process (so a crash in one experiment
# does not stop the rest). Outputs: stdout (paper-style rows + shape
# checks + one verdict line per id) and the files under results/.
# Exits with the worst status it saw: 0 all checks pass, 1 a shape
# check failed, anything higher a crash.
#
# Independent simulation runs fan out across cores via the afs_core::par
# executor; AFS_JOBS caps the worker count (AFS_JOBS=1 forces the serial
# path). Either way the artifacts are byte-identical — results are
# reassembled in submission order.
set -u
AFS_JOBS="${AFS_JOBS:-0}"
[ "$AFS_JOBS" -ge 1 ] 2>/dev/null || AFS_JOBS=$( (nproc || sysctl -n hw.ncpu || echo 1) 2>/dev/null | head -n1 )
export AFS_JOBS
echo "run_experiments: AFS_JOBS=$AFS_JOBS"
cd "$(dirname "$0")" || exit
cargo build --release -q -p afs-bench || exit
worst=0
for id in $(cargo run --release -q -p afs-bench -- list | cut -d' ' -f1); do
  cargo run --release -q -p afs-bench -- run "$id"
  code=$?
  [ "$code" -gt "$worst" ] && worst=$code
done
exit $worst

#!/usr/bin/env bash
# Runs one workload through bench/run.sh and then asserts that the run
# left nothing behind: no process that appeared during the run and whose
# executable or working directory lies under this checkout, no new
# listening socket, no temporary directory.
# Usage: bench/check_clean.sh [workload] [trace]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
workload="${1:-feed_closed}" # the workload that opens a listener and a producer
trace="${2:-0}"

listeners() { # local address of every listening TCP socket
	awk 'FNR > 1 && $4 == "0A" { print FILENAME, $2 }' /proc/net/tcp /proc/net/tcp6 2>/dev/null | sort
}
pids() { ls /proc | grep -E '^[0-9]+$' | tr '\n' ' '; }

before="$(listeners)"
old=" $(pids) $$ $BASHPID "
(cd "$root" && bash bench/run.sh --workload "$workload" --seed 1 --seconds 1 --trace "$trace") | tail -n 1

fail=0
for dir in /proc/[0-9]*; do
	pid="${dir#/proc/}"
	case "$old" in *" $pid "*) continue ;; esac
	for link in exe cwd; do
		target="$(readlink "$dir/$link" 2>/dev/null || true)"
		case "$target" in
		"$root" | "$root"/*)
			echo "left running: pid $pid ($link -> $target): $(tr '\0' ' ' <"$dir/cmdline" 2>/dev/null)"
			fail=1
			;;
		esac
	done
done
after="$(listeners)"
if [ "$before" != "$after" ]; then
	echo "listening sockets changed:"
	diff <(echo "$before") <(echo "$after") || true
	fail=1
fi
left="$(find "$here/out" -mindepth 1 -maxdepth 1 -name 'run-*'; find "$here/out/tmp" -mindepth 1 -maxdepth 1)"
if [ -n "$left" ]; then
	echo "temporary files left: $left"
	fail=1
fi
[ "$fail" = 0 ] && echo "clean: no process, listener or temporary directory left by $workload"
exit "$fail"

#!/bin/sh
# Wait until a sweep_serve daemon started in the background reports
# that it listens: LOG is that start's own stderr log (the socket file
# appears at bind(), before listen(), and a crashed daemon's file can
# outlive it), PID the daemon. Exits 1 with the log when the daemon
# exits first or is not listening after 30 s.
#
#   tools/wait_listening.sh LOG PID
set -u
log=$1
pid=$2
for _ in $(seq 300); do
  if grep -q "sweep_serve: listening on" "$log" 2>/dev/null; then
    exit 0
  fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "sweep_serve (pid $pid) exited before it was listening:" >&2
    cat "$log" >&2
    exit 1
  fi
  sleep 0.1
done
echo "sweep_serve (pid $pid) is not listening after 30 s:" >&2
cat "$log" >&2
exit 1

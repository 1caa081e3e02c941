#!/usr/bin/env python3
"""kill -9 crash-torture for cpclean_server's snapshot persistence.

Loops: start the server over one persistent --data-dir, advance a session
(clean_step + q2 + save_session), and SIGKILL the process at a random
(seeded, reproducible) moment while saves are in flight. After every kill
the server restarts over the same data dir and the session must rehydrate
to a state this script has seen and recorded -- bit-identical q2 answers,
compared as raw JSON bytes -- and never to a state older than the last
acknowledged save. Any torn snapshot surfaces as a loud structured error
from the server (rehydration verifies working-dataset bit-identity and the
task fingerprint), which fails the torture.

The atomic-write protocol (temp file + rename) may leave ``*.tmp`` litter
when killed mid-write -- that is expected and counted -- but the restarted
server's startup sweep must remove it: after every restart the data dir is
checked clean of temp files, and the committed ``*.cpsession`` must be the
last acknowledged state or newer.

The save-only-after-record discipline makes the check airtight: a save is
issued only for states whose q2 bits were recorded first, so whatever the
rename committed before the kill is always a state the script can verify.

``--mode`` picks which persistence machinery the kill lands in:

  save (default)  explicit save_session while cleaning -- under the
                  append-only log most saves are O(delta) log appends, so
                  kills land mid-append and mid-fsync.
  evict           the server runs with --max-sessions=1 and each cycle
                  creates a fresh decoy session, forcing the LRU eviction
                  sweep to persist the torture session; kills land inside
                  the sweep's prepare/retire/commit/drop window.
  compact         the server runs with --storage-mode=mmap and
                  --log-compact-bytes=64, so nearly every save folds the
                  log into a fresh base snapshot; kills land between the
                  base rename and the log unlink, leaving stale logs whose
                  records must replay as no-ops.
  multi           the server runs with --max-sessions=1 and two client
                  threads each clean, save, drop and re-create their own
                  session, so every request on one session evicts the
                  other: kills land among concurrent saves, evictions,
                  rehydrations and drops. Each session's states are
                  precomputed on a reference server (cleaning is
                  deterministic), so a restart may land on any state at or
                  past the last acknowledged save -- and a session whose
                  drop was acknowledged must stay gone.

Stdlib only. Exit 0 with a summary, non-zero with a diagnosis.

  python3 scripts/crash_torture.py \\
      --server ./build/release/examples/cpclean_server --iterations 30 \\
      --mode evict
"""

import argparse
import glob
import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

LISTEN_RE = re.compile(r"listening on 127\.0\.0\.1:([0-9]+)")



def create_request(name, seed, train_rows, val_size, missing_rate):
    return (
        '{"op":"create_session","session":"%s","source":"synthetic",'
        '"dataset":"torture","train_rows":%d,"val_size":%d,"test_size":4,'
        '"seed":%d,"numeric":4,"categorical":0,"noise_sigma":0.3,'
        '"missing_rate":%g,"k":3}'
        % (name, train_rows, val_size, seed, missing_rate))


# The save/evict/compact session: enough dirty rows and validation points
# that greedy cleaning takes 115 steps to certify every point, so most of a
# run's 30 short cycles (each killed 5-120 ms in) reach a new state.
TORTURE_VAL = 60
CREATE = create_request("t", 7, 400, TORTURE_VAL, 0.2)

# --mode multi's sessions and --mode evict's decoys: small, so a multi
# session runs through its few states, is dropped and re-created many
# times per run, and a decoy costs the eviction sweep little.
SMALL_VAL = 4


def small_create(name, seed):
    return create_request(name, seed, 30, SMALL_VAL, 0.4)


class Client:
    """A blocking line-protocol client; raises on any transport failure."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=20)
        self.buffer = b""

    def rpc(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def start_server(server, data_dir, extra_args=()):
    """Starts the server on an ephemeral port; returns (proc, port)."""
    proc = subprocess.Popen(
        [server, "--port=0", "--threads=2", "--data-dir=%s" % data_dir]
        + list(extra_args),
        stderr=subprocess.PIPE,
    )
    port = None
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stderr.readline().decode()
        if not line:
            raise SystemExit("server exited before announcing its port")
        match = LISTEN_RE.search(line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        raise SystemExit("server never announced its port")
    # Drain stderr in the background so the server can't block on the pipe.
    threading.Thread(target=proc.stderr.read, daemon=True).start()
    return proc, port


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def tmp_litter(data_dir):
    return sorted(glob.glob(os.path.join(data_dir, "*.tmp")))


def q2_reply(client, name, val_size):
    """(error code or None, the session's q2 answers for every validation
    index as raw bytes)."""
    response = client.rpc(
        '{"op":"q2","session":"%s","val_indices":[%s]}'
        % (name, ",".join(str(v) for v in range(val_size))))
    parsed = json.loads(response)
    if parsed.get("ok") is not True:
        return parsed.get("error", {}).get("code", response), None
    return None, "\n".join(json.dumps(result, sort_keys=True)
                            for result in parsed["result"]["results"])


def q2_bits(client, name="t", val_size=TORTURE_VAL):
    code, bits = q2_reply(client, name, val_size)
    if code is not None:
        raise SystemExit("q2 %s failed: %s" % (name, code))
    return bits


class Failure(Exception):
    """A torture property broke (as opposed to the kill landing)."""


def rpc_ok(client, line):
    parsed = json.loads(client.rpc(line))
    if parsed.get("ok") is not True:
        raise Failure("%s failed: %s" % (line, parsed.get("error")))
    return parsed["result"]


MULTI_NAMES = ("t", "u")


def multi_create(name):
    return small_create(name, 7 + MULTI_NAMES.index(name))


def reference_states(server, name):
    """Every state `name` passes through while cleaning to exhaustion, as
    q2 bits by state index, from a server with no eviction."""
    data_dir = tempfile.mkdtemp(prefix="cpclean_torture_ref_")
    proc, port = start_server(server, data_dir)
    try:
        client = Client(port)
        rpc_ok(client, multi_create(name))
        states = [q2_bits(client, name, SMALL_VAL)]
        while rpc_ok(client, '{"op":"clean_step","session":"%s"}'
                     % name)["cleaned"]:
            states.append(q2_bits(client, name, SMALL_VAL))
        client.close()
    finally:
        stop(proc)
        shutil.rmtree(data_dir, ignore_errors=True)
    return states


class SessionTorture:
    """One session's client loop for --mode multi, and what it owes: the
    state index of the last acknowledged save, and whether a drop was
    acknowledged since (the session must then stay gone)."""

    def __init__(self, name, states):
        self.name = name
        self.states = states
        self.acked = -1          # no save owed yet
        self.gone = False        # drop acknowledged, no create issued since
        self.dropping = False    # drop issued, not acknowledged
        self.counts = {"saves": 0, "drops": 0, "creates": 0, "retries": 0}
        self.error = None

    def check_restart(self, client):
        """The state index the session rehydrated to; None when absent."""
        code, bits = q2_reply(client, self.name, SMALL_VAL)
        if code == "Not found":
            if self.acked >= 0 and not self.dropping:
                raise Failure("%s is gone but step %d was acknowledged saved"
                              % (self.name, self.acked))
            self.acked, self.dropping = -1, False
            return None
        if code is not None:
            raise Failure("%s did not rehydrate: %s" % (self.name, code))
        if self.gone:
            raise Failure("%s came back after its acknowledged drop"
                          % self.name)
        if bits not in self.states:
            raise Failure("%s rehydrated to an unknown (torn?) state:\n%s"
                          % (self.name, bits))
        step = self.states.index(bits)
        if step < self.acked:
            raise Failure("%s rehydrated to step %d but step %d was "
                          "acknowledged saved" % (self.name, step, self.acked))
        self.dropping = False
        return step

    def run(self, port):
        try:
            client = Client(port)
            step = self.check_restart(client)
            while True:
                if step is None:
                    self.gone = False
                    rpc_ok(client, multi_create(self.name))
                    self.counts["creates"] += 1
                    step = 0
                elif step == len(self.states) - 1:
                    self.dropping = True
                    rpc_ok(client, '{"op":"drop_session","session":"%s"}'
                           % self.name)
                    self.acked, self.gone, self.dropping = -1, True, False
                    self.counts["drops"] += 1
                    step = None
                    continue
                else:
                    parsed = json.loads(client.rpc(
                        '{"op":"clean_step","session":"%s"}' % self.name))
                    if parsed.get("ok") is not True:
                        # A write on the instance the sweep just retired:
                        # never applied, retried on the next incarnation.
                        if parsed["error"]["code"] != "Unavailable":
                            raise Failure("clean_step %s: %s"
                                          % (self.name, parsed["error"]))
                        self.counts["retries"] += 1
                        time.sleep(0.001)
                        continue
                    step += 1
                code, bits = q2_reply(client, self.name, SMALL_VAL)
                if code is not None or bits != self.states[step]:
                    raise Failure("%s diverged from its reference at step %d"
                                  " (%s)" % (self.name, step, code))
                # Touching this session evicted the other one; now save it
                # ("evicted" also means durable: the sweep saved it after
                # our last acknowledged write).
                rpc_ok(client, '{"op":"save_session","session":"%s"}'
                       % self.name)
                self.acked = step
                self.counts["saves"] += 1
        except Failure as failure:
            self.error = str(failure)
        except (ConnectionError, OSError):
            pass  # the kill landed


def run_multi(args, data_dir):
    extra_args = ["--max-sessions=1"]
    tortures = [SessionTorture(n, reference_states(args.server, n))
                for n in MULTI_NAMES]
    kills_with_litter = 0
    for iteration in range(args.iterations):
        rng = random.Random(args.seed * 100003 + iteration)
        proc, port = start_server(args.server, data_dir, extra_args)
        try:
            litter = tmp_litter(data_dir)
            if litter:
                raise SystemExit(
                    "iteration %d: startup sweep left temp litter: %s"
                    % (iteration, litter))
            threads = [threading.Thread(target=t.run, args=(port,))
                       for t in tortures]
            timer = threading.Timer(rng.uniform(0.01, 0.25), proc.kill)
            timer.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            timer.cancel()
        finally:
            stop(proc)
        for t in tortures:
            if t.error is not None:
                raise SystemExit("iteration %d: %s" % (iteration, t.error))
        if tmp_litter(data_dir):
            kills_with_litter += 1

    # Final restart: both sessions must still rehydrate clean (or stay
    # gone).
    proc, port = start_server(args.server, data_dir, extra_args)
    try:
        if tmp_litter(data_dir):
            raise SystemExit("final restart left temp litter")
        client = Client(port)
        for t in tortures:
            try:
                t.check_restart(client)
            except Failure as failure:
                raise SystemExit("final restart: %s" % failure)
        client.close()
    finally:
        stop(proc)
    print(
        "crash torture OK (mode=multi): %d kill/restart cycles over %s, "
        "%s, %d kills left temp litter (all swept on restart)"
        % (args.iterations, data_dir,
           "; ".join("%s: %d states, %d saves, %d creates, %d drops, %d "
                     "retried writes" % (t.name, len(t.states),
                                         t.counts["saves"],
                                         t.counts["creates"],
                                         t.counts["drops"],
                                         t.counts["retries"])
                     for t in tortures),
           kills_with_litter)
    )


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--server", required=True,
                        help="cpclean_server binary")
    parser.add_argument("--iterations", type=int, default=30,
                        help="kill/restart cycles")
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the kill-timing schedule")
    parser.add_argument("--data-dir", default=None,
                        help="persistent dir (default: a fresh tempdir)")
    parser.add_argument("--mode",
                        choices=("save", "evict", "compact", "multi"),
                        default="save",
                        help="which persistence path the kills land in")
    args = parser.parse_args()

    extra_args = []
    if args.mode == "evict":
        extra_args = ["--max-sessions=1"]
    elif args.mode == "compact":
        extra_args = ["--storage-mode=mmap", "--log-compact-bytes=64"]

    data_dir = args.data_dir or tempfile.mkdtemp(prefix="cpclean_torture_")
    if args.data_dir is None:
        shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir, exist_ok=True)

    if args.mode == "multi":
        run_multi(args, data_dir)
        if args.data_dir is None:
            shutil.rmtree(data_dir, ignore_errors=True)
        return 0

    # Every state the session has ever been in: q2 bits -> step index. A
    # rehydrated session must land on one of these, at or past `acked`.
    known = {}
    acked = -1
    kills_with_litter = 0
    created = False
    # Cycles whose kill landed after the session reached a state no earlier
    # cycle had: a cycle that only replays old states tortures nothing new.
    advanced = 0
    # Cycles whose kill was armed before their first clean_step.
    early_kills = 0

    decoys = 0
    for iteration in range(args.iterations):
        rng = random.Random(args.seed * 100003 + iteration)
        states_before = len(known)
        proc, port = start_server(args.server, data_dir, extra_args)
        try:
            litter = tmp_litter(data_dir)
            if litter:
                raise SystemExit(
                    "iteration %d: startup sweep left temp litter: %s"
                    % (iteration, litter))

            client = Client(port)
            if not created:
                response = client.rpc(CREATE)
                if json.loads(response).get("ok") is not True:
                    raise SystemExit("create failed: %s" % response)
                created = True
                known[q2_bits(client)] = 0
            else:
                # Rehydrates lazily off the snapshot the kill left behind.
                bits = q2_bits(client)
                if bits not in known:
                    raise SystemExit(
                        "iteration %d: rehydrated to an unknown state "
                        "(torn or fabricated snapshot):\n%s"
                        % (iteration, bits))
                if known[bits] < acked:
                    raise SystemExit(
                        "iteration %d: rehydrated to step %d but step %d "
                        "was acknowledged saved -- an acked save was lost"
                        % (iteration, known[bits], acked))
            bits = q2_bits(client)
            step = known[bits]

            # One guaranteed acknowledged save, so even an instant kill has
            # a floor to verify against.
            response = client.rpc('{"op":"save_session","session":"t"}')
            if json.loads(response).get("ok") is not True:
                raise SystemExit("save failed: %s" % response)
            acked = max(acked, known[bits])

            # Now advance-record-save as fast as possible, and pull the
            # plug mid-stream. The first step after a restart rescores every
            # selection cell (a restarted server carries no scores) and
            # outlasts most short kill windows, so most cycles arm the kill
            # once that step and its save are acknowledged: it lands among
            # the fast steps and saves that follow. Every third cycle arms
            # it before the first step, with a window wide enough to cover
            # that slow step and the rehydrated session's first save.
            timer = None
            if iteration % 3 == 1:
                early_kills += 1
                timer = threading.Timer(rng.uniform(0.005, 0.3), proc.kill)
                timer.start()
            try:
                while True:
                    response = client.rpc(
                        '{"op":"clean_step","session":"t","steps":1}')
                    if json.loads(response).get("ok") is not True:
                        raise SystemExit("clean_step failed: %s" % response)
                    # Once cleaning is exhausted, further steps leave the
                    # state (and its bits) unchanged — the state index, not
                    # the step counter, is what acked must track.
                    step += 1
                    bits = q2_bits(client)
                    known.setdefault(bits, step)
                    if args.mode == "evict":
                        # Persist by eviction: a fresh decoy session pushes
                        # the torture session (the LRU) through the sweep's
                        # save. An ok decoy create means the sweep's save
                        # of the just-recorded state committed.
                        decoys += 1
                        response = client.rpc(
                            small_create("d%d" % decoys, 7))
                    else:
                        response = client.rpc(
                            '{"op":"save_session","session":"t"}')
                    if json.loads(response).get("ok") is not True:
                        raise SystemExit("save failed: %s" % response)
                    acked = max(acked, known[bits])
                    if timer is None:
                        timer = threading.Timer(rng.uniform(0.005, 0.12),
                                                proc.kill)
                        timer.start()
            except (ConnectionError, OSError):
                pass  # the kill landed
            finally:
                if timer is not None:
                    timer.cancel()
            client.close()
        finally:
            stop(proc)

        if len(known) > states_before:
            advanced += 1
        if tmp_litter(data_dir):
            kills_with_litter += 1

    # Final restart: the surviving snapshot must still rehydrate clean.
    proc, port = start_server(args.server, data_dir, extra_args)
    try:
        if tmp_litter(data_dir):
            raise SystemExit("final restart left temp litter")
        client = Client(port)
        bits = q2_bits(client)
        if bits not in known or known[bits] < acked:
            raise SystemExit("final rehydration check failed")
        client.close()
    finally:
        stop(proc)

    print(
        "crash torture OK (mode=%s): %d kill/restart cycles over %s (%d "
        "reached a new state, %d armed the kill before the first step), %d "
        "distinct session states verified bit-identical, %d kills left temp "
        "litter (all swept on restart), last acked step %d"
        % (args.mode, args.iterations, data_dir, advanced, early_kills,
           len(known), kills_with_litter, acked)
    )
    if args.data_dir is None:
        shutil.rmtree(data_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Symbolize and summarize the stacks tools/sprof.cpp writes.

Each input line is one sample: "module+0xoffset" frames, leaf first.
Frames are named by addr2line where the module has debug info, else by
the sized nm symbol that contains them (static table, then dynamic: how
stripped libc is named).  Code no symbol covers, such as libc's local
string-function variants, is "[module after <preceding symbol>]".

Prints the top frames by self share (the leaf) and by inclusive share (the
frame anywhere on the stack, counted once per sample); --callers NAME adds
the immediate callers of every frame whose name contains NAME.

Usage:
  tools/sprof_report.py PROFILE [--callers NAME]
  tools/sprof_report.py --run LIBSPROF [--expect REGEX] -- COMMAND ARGS...

--run profiles COMMAND under LD_PRELOAD=LIBSPROF first.  --expect makes the exit code 1 unless some reported
frame name matches REGEX.  Exits 77 when addr2line is missing.
"""

import argparse
import bisect
import collections
import os
import re
import shutil
import subprocess
import sys
import tempfile


def nm_symbols(module):
    """Sorted (address, size, name) of module's sized function symbols:
    the static table, or the dynamic one when the module is stripped."""
    for flags in ([], ["-D"]):
        out = subprocess.run(
            ["nm", "-C", "-S", "--defined-only"] + flags + [module],
            capture_output=True, text=True).stdout
        syms = []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "TtWwi":
                syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
        if syms:
            return sorted(syms)
    return []


def symbolize(module, offsets):
    """{offset: function name} for the offsets of one module."""
    if not os.path.exists(module):
        return {o: f"{module}+{o:#x}" for o in offsets}
    names = {}
    # addr2line names a frame when it finds debug info (in the module or
    # through its debuglink); without it, it guesses the nearest dynamic
    # symbol, which in stripped libc is usually the wrong function.
    out = subprocess.run(["addr2line", "-f", "-C", "-e", module] +
                         [hex(o) for o in offsets],
                         capture_output=True, text=True).stdout.splitlines()
    for o, fn, where in zip(offsets, out[0::2], out[1::2]):
        if fn != "??" and not where.startswith("??"):
            names[o] = fn
    missing = [o for o in offsets if o not in names]
    syms = nm_symbols(module) if missing else []
    starts = [a for a, _, _ in syms]
    base = os.path.basename(module)
    for o in missing:
        i = bisect.bisect_right(starts, o) - 1
        if i < 0:
            names[o] = f"[{base}]"
        elif o < syms[i][0] + syms[i][1]:
            names[o] = syms[i][2]
        else:  # unnamed code, e.g. libc's local memcmp/memset variants
            names[o] = f"[{base} after {syms[i][2]}]"
    return names


def load(path):
    """The samples as lists of frame names, leaf first."""
    stacks = []
    wanted = collections.defaultdict(set)
    with open(path) as f:
        for line in f:
            frames = []
            for depth, frame in enumerate(line.split()):
                module, _, off = frame.rpartition("+")
                # A caller's frame holds its return address: look up the
                # call instruction before it.
                offset = int(off, 16) - (1 if depth else 0)
                frames.append((module, offset))
                wanted[module].add(offset)
            if frames:
                stacks.append(frames)
    names = {}
    for module, offsets in wanted.items():
        for o, name in symbolize(module, sorted(offsets)).items():
            names[(module, o)] = name
    return [[names[fr] for fr in frames] for frames in stacks]


def report(stacks, callers, top=20):
    total = len(stacks)
    print(f"{total} samples")
    if not total:
        return
    self_count = collections.Counter(s[0] for s in stacks)
    incl_count = collections.Counter(n for s in stacks for n in set(s))
    for title, counts in (("self", self_count), ("inclusive", incl_count)):
        print(f"\n== top {top} by {title} share ==")
        for name, n in counts.most_common(top):
            print(f"{100.0 * n / total:6.1f}%  {name}")
    if callers:
        hits = collections.Counter()
        for s in stacks:
            for i, name in enumerate(s[:-1]):
                if callers in name:
                    hits[s[i + 1]] += 1
                    break
        print(f"\n== callers of '{callers}' (share of all samples) ==")
        for name, n in hits.most_common(top):
            print(f"{100.0 * n / total:6.1f}%  {name}")


def run_profiled(lib, command):
    """Runs command under the sampler and returns its samples."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sprof.out")
        env = dict(os.environ, LD_PRELOAD=os.path.abspath(lib), SPROF_OUT=out)
        rc = subprocess.run(command, env=env,
                            stdout=subprocess.DEVNULL).returncode
        if rc != 0:
            sys.exit(f"sprof_report: {command[0]} exited {rc}")
        return load(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile", nargs="?", help="a file sprof wrote")
    ap.add_argument("--run", metavar="LIBSPROF",
                    help="profile the command after -- with this library")
    ap.add_argument("--callers", metavar="NAME")
    ap.add_argument("--expect", metavar="REGEX")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args, command = ap.parse_args(argv[:cut]), argv[cut + 1:]
    if shutil.which("addr2line") is None:
        print("sprof_report: addr2line not found, skipping")
        return 77
    if args.run:
        if not command:
            ap.error("--run needs a command after --")
        stacks = run_profiled(args.run, command)
    elif args.profile and not command:
        stacks = load(args.profile)
    else:
        ap.error("give a PROFILE, or --run LIBSPROF -- COMMAND")
    report(stacks, args.callers)
    if args.expect:
        pattern = re.compile(args.expect)
        if not any(pattern.search(n) for s in stacks for n in s):
            print(f"sprof_report: no frame matches {args.expect!r}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self and inclusive time per function from a sampler.so profile.

Usage: report.py PROFILE [--top N] [--within FUNCTION]
                 [--callees FUNCTION | --callers FUNCTION [--depth N]]

PROFILE is the file sampler.so wrote (SAMPLER_OUT). Each sample's program
counters are attributed to the file mapped at that address, then
symbolised with `addr2line -f -C -i`, so inlined functions count as
frames of their own. A function's self time is the share of samples whose
innermost frame it is; its inclusive time is the share of samples with it
anywhere on the stack (counted once per sample, so recursion does not
inflate it). Only the executable is symbolised; other addresses are
attributed to their library's name.

With --within FUNCTION, only the stacks with a frame whose name contains
FUNCTION are kept, and shares are of those stacks: the split of one
figure's time, e.g. `--within fig04_profiling`.

With --callees FUNCTION, the stacks with a frame whose name contains
FUNCTION are shared out by the frame just inside the innermost such frame
(its direct callee), with `(self)` for the samples where that frame is the
innermost one: the split of one function's time across what it calls, e.g.
`--callees ReferenceModel::layer`. Shares are of those stacks.

With --callers FUNCTION, the mirror of --callees: the samples whose
innermost frame's name contains FUNCTION (its self time) are shared out by
their caller chain, the --depth frames (default 8) just outside that
frame, innermost first, as `caller <- its caller <- ...`, or `(no caller)`.
Generic arguments are dropped from the chain's names to keep it readable.
It shows which paths spend one function's self time, e.g.
`--callers occupy`. Inlined frames count, so a leaf inside iterator code
may need a larger --depth to reach the function that matters. Shares are
of those samples.
"""

import argparse
import collections
import os
import struct
import subprocess
import sys


def read_profile(path):
    """Returns (header, executable, stacks, maps): each stack is a list of
    addresses, innermost first; maps is a list of (start, end, offset, path)."""
    stacks, maps = [], []
    with open(path) as f:
        header = f.readline().strip()
        executable = f.readline().strip().removeprefix("exe ")
        for line in f:
            if line == "maps\n":
                break
            stacks.append([int(word, 16) for word in line.split()])
        for line in f:
            fields = line.split(maxsplit=5)
            if len(fields) < 6 or not fields[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            maps.append((start, end, int(fields[2], 16), fields[5].strip()))
    return header, executable, stacks, maps


def load_segments(path):
    """The PT_LOAD segments of a 64-bit little-endian ELF file, as
    (file offset, file size, virtual address) triples."""
    with open(path, "rb") as f:
        ident = f.read(64)
        if ident[:4] != b"\x7fELF" or ident[4] != 2 or ident[5] != 1:
            return []
        phoff, = struct.unpack_from("<Q", ident, 0x20)
        phentsize, phnum = struct.unpack_from("<HH", ident, 0x36)
        segments = []
        for i in range(phnum):
            f.seek(phoff + i * phentsize)
            p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack("<IIQQQQ", f.read(40))
            if p_type == 1:
                segments.append((p_offset, p_filesz, p_vaddr))
        return segments


def to_file_address(address, maps, segments):
    """(path, ELF virtual address) of a runtime address, or (path, None)
    when it lies in no loaded segment of a known file."""
    for start, end, offset, path in maps:
        if start <= address < end:
            file_offset = address - start + offset
            for seg_offset, seg_size, vaddr in segments.get(path, []):
                if seg_offset <= file_offset < seg_offset + seg_size:
                    return path, file_offset - seg_offset + vaddr
            return path, None
    return None, None


def symbolise(path, addresses):
    """Maps each ELF address to its inline chain of function names,
    innermost first, with one addr2line call for the whole set."""
    ordered = sorted(addresses)
    query = "".join(f"{a:x}\n" for a in ordered)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
        input=query, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    chains, current = {}, None
    i = 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            current = int(line, 16)
            chains[current] = []
            i += 1
            continue
        name = line if line != "??" else f"{os.path.basename(path)}+{current:#x}"
        chains[current].append(name)
        i += 2  # a function line, then its file:line
    return chains


def without_generics(name):
    """`name` with every `<...>` group removed, and the `::` left at either
    end: `land_due<Take<..>>` reads `land_due`, `<Child>::wait` `wait`."""
    kept, depth, previous = [], 0, ""
    for char in name:
        if char == "<":
            depth += 1
        elif char == ">" and depth and previous != "-":  # not a `->`
            depth -= 1
        elif not depth:
            kept.append(char)
        previous = char
    return "".join(kept).strip(":") or name


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--within", metavar="FUNCTION",
                        help="keep only stacks with a frame whose name contains FUNCTION")
    split = parser.add_mutually_exclusive_group()
    split.add_argument("--callees", metavar="FUNCTION",
                       help="split the stacks through FUNCTION by its direct callee")
    split.add_argument("--callers", metavar="FUNCTION",
                       help="split FUNCTION's self samples by their caller chain")
    parser.add_argument("--depth", type=int, default=8, metavar="N",
                        help="frames of caller chain --callers splits by (default 8)")
    args = parser.parse_args()

    header, executable, stacks, maps = read_profile(args.profile)
    if not stacks:
        sys.exit(f"{args.profile}: no samples ({header})")
    segments = {executable: load_segments(executable)}

    frames = []  # per sample: (path, elf address or None, runtime address)
    wanted = collections.defaultdict(set)
    resolved = {}
    for stack in stacks:
        sample = []
        for depth, address in enumerate(stack):
            # Return addresses point after the call; step back into it.
            lookup = address if depth == 0 else address - 1
            if lookup not in resolved:
                resolved[lookup] = to_file_address(lookup, maps, segments)
            path, elf = resolved[lookup]
            if path == executable and elf is not None:
                wanted[path].add(elf)
            sample.append((path, elf, address))
        frames.append(sample)
    chains = {path: symbolise(path, addresses) for path, addresses in wanted.items()}

    self_counts, inclusive_counts = collections.Counter(), collections.Counter()
    split_counts = collections.Counter()
    kept = 0
    for sample in frames:
        names = []
        for path, elf, address in sample:
            if path in chains and elf in chains[path]:
                names.extend(chains[path][elf])
            elif path is not None:
                names.append(f"[{os.path.basename(path)}]")
            else:
                names.append(f"[unmapped {address:#x}]")
        if args.within and not any(args.within in name for name in names):
            continue
        if args.callees:
            depth = next((i for i, name in enumerate(names) if args.callees in name), None)
            if depth is None:
                continue
            split_counts[names[depth - 1] if depth else "(self)"] += 1
        if args.callers:
            if args.callers not in names[0]:
                continue
            chain = (without_generics(name) for name in names[1:1 + args.depth])
            split_counts[" <- ".join(chain) or "(no caller)"] += 1
        kept += 1
        self_counts[names[0]] += 1
        inclusive_counts.update(set(names))

    total = len(frames)
    print(f"{header}; {total} stacks from {args.profile}")
    tables = [("self", self_counts), ("inclusive", inclusive_counts)]
    if args.within or args.callees or args.callers:
        through = " and ".join(
            f"{word} {name}" for word, name in (
                ("within", args.within), ("through", args.callees),
                ("with innermost frame", args.callers),
            )
            if name
        )
        if not kept:
            sys.exit(f"{args.profile}: no stacks {through}")
        share = 100.0 * kept / total
        print(f"{kept} stacks ({share:.2f}%) {through}; shares below are of those")
        total = kept
    if args.callees:
        tables = [("callee", split_counts)]
    if args.callers:
        tables = [("callers", split_counts)]
    for title, counts in tables:
        print(f"\n{title:>9}  samples  function")
        for name, count in counts.most_common(args.top):
            print(f"{100.0 * count / total:8.2f}%  {count:7d}  {name}")


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # The reader closed early (`report.py ... | head`): what it read is
        # what it asked for. Point stdout at /dev/null so the flush at exit
        # cannot raise again, and exit cleanly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)

#!/usr/bin/env python3
"""Check the innermost loops of compiled kernels in an object file.

A loop is the range from a backward branch's target to the branch itself;
it is innermost when no other such range lies inside it. Only the innermost
loops of the functions matching --func that contain an instruction matching
--select are checked (by default the saturating and max/min byte DP ops,
signed or unsigned, which leaves out set-up loops such as the batch kernel's
score-profile build), and with --select-per-cell PATTERN=N only those with
at least N instructions matching PATTERN per DP cell. The check fails when
no loop is selected, or when a selected loop

  * has no %zmm operand (--zmm),
  * contains an instruction matching a --forbid pattern,
  * has more than N instructions matching a --max PATTERN=N limit,
  * has more than N instructions matching a --per-cell PATTERN=N limit per
    DP cell, where --cells names the instruction that occurs once per cell,
  * has fewer than N instructions matching a --min-per-cell PATTERN=N bound
    per DP cell.

With --min-cells N it also fails unless some selected loop computes at
least N cells per iteration.

Example (the batch32 AVX-512 affine row loops, selected by their three
saturating subtracts per cell: one saturating vpaddsb per cell, at most 6
busy-port byte ops and at least 3 merge-masked vpermb per cell, no unmasked
vpermb, and a 4-column block whose loop stores only H and F):

  tools/check_inner_loops.py build/src/CMakeFiles/swve.dir/core/batch32_avx512.cpp.o \\
      --func 'batch32_u8_avx512\\(|batch32_kernel<.*BatchAvx512' --zmm \\
      --cells '^vpaddsb' --select-per-cell 'vpsubsb=3' --forbid '^vpermb [^{]*$' \\
      --per-cell 'vp(max|min)[su]b|vp(add|sub)u?sb=6' \\
      --min-per-cell 'vpermb .*\\{%k[1-7]=3' --min-cells 4 \\
      --max 'vmov\\S* %zmm[0-9]+,[^%]*\\(%r[a-z0-9]+=2'
"""
import argparse
import os
import re
import subprocess
import sys

HEADER = re.compile(r"^([0-9a-f]+) <(.*)>:$")
INSN = re.compile(r"^\s*([0-9a-f]+):\s+(\S.*)$")
BRANCH = re.compile(r"^j[a-z]*\s+([0-9a-f]+)\b")


def functions(objdump_text, func_re):
    """Yields (name, [(addr, insn), ...]) for each matching function."""
    name, body = None, []
    for line in objdump_text.splitlines():
        h = HEADER.match(line)
        if h:
            if name is not None:
                yield name, body
            name = h.group(2) if func_re.search(h.group(2)) else None
            body = []
            continue
        m = INSN.match(line)
        if name is not None and m:
            body.append((int(m.group(1), 16), m.group(2).strip()))
    if name is not None:
        yield name, body


def innermost_loops(body):
    """Returns the innermost loops of one function as (start, insns)."""
    if not body:
        return []
    lo = body[0][0]
    loops = []
    for addr, insn in body:
        b = BRANCH.match(insn)
        if b:
            target = int(b.group(1), 16)
            if lo <= target <= addr:
                loops.append((target, addr))
    inner = [
        (t, a) for (t, a) in loops
        if not any((t2, a2) != (t, a) and t <= t2 and a2 <= a for (t2, a2) in loops)
    ]
    return [(t, [insn for addr, insn in body if t <= addr <= a])
            for t, a in sorted(set(inner))]


def short_name(name):
    """Drops the parameter list: the last balanced (...) group."""
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i]
    return name


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("obj", help="object file to disassemble")
    ap.add_argument("--func", required=True, help="regex over demangled function names")
    ap.add_argument("--select", default=r"^vp((max|min)[su]b|(add|sub)u?sb)\b",
                    help="regex: check only loops containing a matching instruction")
    ap.add_argument("--select-per-cell", action="append", default=[], metavar="PATTERN=N",
                    help="check only loops with at least N instructions matching PATTERN "
                         "per cell (needs --cells)")
    ap.add_argument("--zmm", action="store_true", help="require %%zmm in every loop")
    ap.add_argument("--forbid", action="append", default=[],
                    help="regex of an instruction no loop may contain")
    ap.add_argument("--max", action="append", default=[], metavar="PATTERN=N",
                    help="at most N instructions matching PATTERN per loop")
    ap.add_argument("--cells", help="regex of the instruction that occurs once per DP cell")
    ap.add_argument("--per-cell", action="append", default=[], metavar="PATTERN=N",
                    help="at most N instructions matching PATTERN per cell (needs --cells)")
    ap.add_argument("--min-per-cell", action="append", default=[], metavar="PATTERN=N",
                    help="at least N instructions matching PATTERN per cell (needs --cells)")
    ap.add_argument("--min-cells", type=int, default=0, metavar="N",
                    help="some loop computes at least N cells (needs --cells)")
    args = ap.parse_args()

    if not os.path.isfile(args.obj):
        print("::error::%s not found" % args.obj)
        return 1
    text = subprocess.run(["objdump", "-d", "--no-show-raw-insn", "-C", args.obj],
                          check=True, capture_output=True, text=True).stdout
    func_re = re.compile(args.func)
    select = re.compile(args.select)
    forbid = [re.compile(p) for p in args.forbid]
    if (args.per_cell or args.min_per_cell or args.select_per_cell or args.min_cells) \
            and not args.cells:
        ap.error("--per-cell, --min-per-cell, --select-per-cell and --min-cells need --cells")
    cells_re = re.compile(args.cells) if args.cells else None

    def parse(specs):
        out = []
        for spec in specs:
            pattern, _, n = spec.rpartition("=")
            out.append((pattern, re.compile(r"^(%s)\b" % pattern), int(n)))
        return out

    limits = parse(args.max)
    cell_limits = parse(args.per_cell)
    cell_floors = parse(args.min_per_cell)
    select_floors = parse(args.select_per_cell)

    checked, most_cells, errors = 0, 0, []
    for name, body in functions(text, func_re):
        short = short_name(name)
        for start, loop in innermost_loops(body):
            if not any(select.search(i) for i in loop):
                continue
            counts = {p: sum(1 for i in loop if r.search(i))
                      for p, r, _ in limits + cell_limits + cell_floors + select_floors}
            cells = sum(1 for i in loop if cells_re.search(i)) if cells_re else 0
            if any(cells == 0 or counts[p] < n * cells for p, _, n in select_floors):
                continue
            checked += 1
            where = "%s loop at %x (%d insns)" % (short, start, len(loop))
            most_cells = max(most_cells, cells)
            print("%s: zmm=%d%s %s" % (where, sum("%zmm" in i for i in loop),
                                        " cells=%d" % cells if cells_re else "",
                                        " ".join("%s=%d" % kv for kv in counts.items())))
            if args.zmm and not any("%zmm" in i for i in loop):
                errors.append("%s: no zmm instruction" % where)
            for r in forbid:
                hits = [i for i in loop if r.search(i)]
                if hits:
                    errors.append("%s: contains %s" % (where, hits[0]))
            for pattern, _, n in limits:
                if counts[pattern] > n:
                    errors.append("%s: %d instructions match %s (max %d)"
                                  % (where, counts[pattern], pattern, n))
            if (cell_limits or cell_floors) and cells == 0:
                errors.append("%s: no instruction matches --cells %s" % (where, args.cells))
            for pattern, _, n in cell_limits:
                if counts[pattern] > n * cells:
                    errors.append("%s: %d instructions match %s in %d cells (max %d per cell)"
                                  % (where, counts[pattern], pattern, cells, n))
            for pattern, _, n in cell_floors:
                if counts[pattern] < n * cells:
                    errors.append("%s: %d instructions match %s in %d cells (min %d per cell)"
                                  % (where, counts[pattern], pattern, cells, n))
    if checked == 0:
        errors.append("no innermost loop of a function matching %r selected" % args.func)
    elif most_cells < args.min_cells:
        errors.append("no selected loop computes %d cells (most: %d)"
                      % (args.min_cells, most_cells))
    for e in errors:
        print("::error::" + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one permcodes CLI command with spans around its layer functions.

Usage: python3 perfbench/tracer.py SPANS_JSON CLI_ARG...

The benchmark starts this script in place of ``python -m permcodes.cli`` for
its traced passes.  It wraps the public functions of each permcodes module
(every module namespace that binds one, since modules import each other's
functions by name), calls ``permcodes.cli.main`` with the remaining
arguments, and writes the spans as JSON when the command returns:

    {"imported": t, "absent": [...], "rc": code,
     "spans": [[name, start, end, parent, count], ...]}

Times are ``time.monotonic()``, a clock shared by all processes on the
machine, so the benchmark can subtract its own spawn time from ``imported``.
``parent`` is the index of the enclosing span (-1 at top level).  ``count``
is the unit of work of that span, taken from its arguments or return value
(see COUNTS), or null.

Per-element functions (``phi``, ``perm_hamming``, ``compose``) are never
wrapped: they run hundreds of thousands of times per command.
``FieldSpec.tables`` is called from ``phi`` too, so its wrapper stays on the
class only while some field made by ``field_make`` has unbuilt tables; once
all are built, lookups go straight to the original method.  A function
missing from the program is listed in ``absent`` and traced no further.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

clock = time.monotonic

import permcodes.cli  # noqa: E402  (import time is measured from here)

IMPORTED = clock()

# span name -> attribute of a permcodes module ("Class.method" for a method).
# The span name's prefix names the module.
TARGETS = {
    "gf.tables": "FieldSpec.tables",
    "gf.field_make": "field_make",
    "linear.min_distance": "min_distance",
    "linear.nonzero_weight_set": "nonzero_weight_set",
    "linear.random_code_search": "random_code_search",
    "linear.find_full_weight_dual_codeword": "find_full_weight_dual_codeword",
    "linear.parity_check": "parity_check",
    "linear.parity_check_with_ones_row": "parity_check_with_ones_row",
    "mds.reed_solomon": "reed_solomon",
    "mds.extended_rs": "extended_rs",
    "perms.coset_representatives": "coset_representatives",
    "perms.syndrome_buckets": "syndrome_buckets",
    "perms.code_min_distance": "code_min_distance",
    "perms.max_code_in_K": "max_code_in_K",
    "perms.max_binary_code": "max_binary_code",
    "perms.lift_code_into_K": "lift_code_into_K",
    "perms.max_clique": "_max_clique",
    "perms.read_permutation_code": "read_permutation_code",
    "perms.write_permutation_code": "write_permutation_code",
    "bounds.bound_report": "bound_report",
    "bounds.ratio_new_old": "ratio_new_old",
    "bounds.ratio_amds_old": "ratio_amds_old",
    "bounds.amds_vs_old_threshold": "amds_vs_old_threshold",
    "bounds.general_firstbound": "general_firstbound",
    "cli.main": "main",
}


def _scan_size(code) -> int:
    """Codewords in one weight scan: one per scalar class of messages."""
    q = code.spec.q
    return (q**code.k - 1) // (q - 1)


def _dmin_cached(args) -> bool:
    return getattr(args[0], "_dmin", None) is not None


# Calls answered from an in-process cache do no layer work: no span.
SKIP = {
    "gf.tables": lambda args: getattr(args[0], "_add", None) is not None,
    "linear.min_distance": _dmin_cached,
    "perms.code_min_distance": _dmin_cached,
}

COUNTS = {
    "gf.tables": lambda args, ret: 2 * args[0].q ** 2 + 2 * args[0].q,
    "linear.min_distance": lambda args, ret: _scan_size(args[0]),
    "linear.nonzero_weight_set": lambda args, ret: _scan_size(args[0]),
    "linear.random_code_search": lambda args, ret: int(ret is not None),
    "perms.syndrome_buckets": lambda args, ret: len(ret[0]),
    "perms.code_min_distance": lambda args, ret: len(
        getattr(args[0], "members", args[0])
    ),
    "perms.max_clique": lambda args, ret: len(args[0]),
    "bounds.bound_report": lambda args, ret: 1,
    "bounds.ratio_new_old": lambda args, ret: 1,
    "bounds.ratio_amds_old": lambda args, ret: 1,
}

spans: list[list] = []
_stack: list[int] = []

# FieldSpec.tables: (class, original method, traced method), set by install().
_tables: list = []


def _tables_built() -> bool:
    cache = getattr(sys.modules.get("permcodes.gf"), "_SPEC_CACHE", None)
    if not isinstance(cache, dict):
        return False  # cannot tell: keep the wrapper
    return all(getattr(s, "_add", None) is not None for s in cache.values())


def _disarm_tables(args, ret) -> None:
    if _tables and _tables_built():
        cls, original, _ = _tables
        cls.tables = original


def _arm_tables(args, ret) -> None:
    if _tables and getattr(ret, "_add", True) is None:
        cls, _, traced = _tables
        cls.tables = traced


# Called with (args, return value) after the span closes.
AFTER = {
    "gf.tables": _disarm_tables,
    "gf.field_make": _arm_tables,
}


def _wrap(name, fn):
    skip = SKIP.get(name)
    count = COUNTS.get(name)
    after = AFTER.get(name)

    def traced(*args, **kwargs):
        if skip is not None and skip(args):
            return fn(*args, **kwargs)
        idx = len(spans)
        span = [name, clock(), None, _stack[-1] if _stack else -1, None]
        spans.append(span)
        _stack.append(idx)
        try:
            ret = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            _stack.pop()
        if count is not None:
            try:
                span[4] = count(args, ret)
            except (AttributeError, IndexError, KeyError, TypeError):
                pass  # a changed signature leaves the count null, not the command broken
        if after is not None:
            after(args, ret)
        return ret

    return traced


def install() -> list[str]:
    """Wrap every target wherever it is bound; return the absent span names."""
    absent = []
    for name, attr in TARGETS.items():
        try:
            module = importlib.import_module("permcodes." + name.partition(".")[0])
        except ImportError:
            absent.append(name)
            continue
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, fn_name, None) if owner is not None else None
        if not callable(fn):
            absent.append(name)
            continue
        traced = _wrap(name, fn)
        if owner_name:
            setattr(owner, fn_name, traced)
            if name == "gf.tables":
                _tables[:] = [owner, fn, traced]
            continue
        for key_mod, mod in list(sys.modules.items()):
            if key_mod.partition(".")[0] != "permcodes":
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)
    _disarm_tables(None, None)
    return absent


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    absent = install()
    rc = None
    try:
        rc = permcodes.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(
                {"imported": IMPORTED, "absent": absent, "rc": rc, "spans": spans}, fh
            )
    return rc


if __name__ == "__main__":
    raise SystemExit(main())

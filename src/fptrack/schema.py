"""The key table of every config document, and the one reader that checks it.

``TABLE`` has one entry per JSON object: the experiment config, its problem
and channel (by kind), drift and signal specs, injection spec, network
document, QP instance, and the inputs of ``fptrack bounds``. An entry maps
each key to ``(check, default)``, the default as read. ``REQUIRED`` marks a
key that must be given; a default of ``None`` means "absent" (null reads the
same), which the caller resolves. A :class:`Kinds` entry takes its key set
from the object's ``kind``.

:func:`read` returns a document's values with defaults filled in, or raises
``ConfigError``: neither a boolean nor a string is ever a number; numbers are
finite; integer fields take JSON integers; sizes are bounded by the caps below
before anything is allocated.
"""
from __future__ import annotations

import json
import math
import sys

from .errors import ConfigError
from .norms import L2, LINF

MAX_HORIZON = 1_000_000      # ticks of a run; also caps delays, periods and drop runs
MAX_DIM = 2_000              # affine state dimension; bound-input dim
MAX_DEVICES = 2_000          # QP devices, random or inline
MAX_BUSES = 2_000            # load buses of a network document
MAX_AUDIT_SAMPLES = 100_000
MAX_SEED = 2**63 - 1

REQUIRED = object()
_READ_DEFAULTS = {}  # id of an object default in TABLE -> its values


class Kinds(dict):
    """Key sets of an object, by the value of its ``kind`` key."""


def load_json(path, what):
    """The JSON document at ``path``; ConfigError when it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def read(doc, entry, where=""):
    """The values of ``doc`` (at document path ``where``) checked against ``TABLE[entry]``."""
    label = entry if where in ("", entry) else f"{entry} at {where}"
    if not isinstance(doc, dict):
        raise ConfigError(f"{label} must be an object, got {doc!r}")
    keys = TABLE[entry]
    if isinstance(keys, Kinds):
        kind = doc.get("kind")
        kind_keys = keys[kind] if isinstance(kind, str) and kind in keys else {}
        keys = {"kind": (choice(*keys), REQUIRED), **kind_keys}
    values = {}
    for key, (check, default) in keys.items():
        v = doc.get(key, default)
        if v is REQUIRED:
            raise ConfigError(f"missing key {key!r} in {label}")
        if v is not default:
            v = check(v, f"{where}.{key}" if where else key)
        elif isinstance(v, dict):  # an object default fills in its own defaults, once
            v = dict(_READ_DEFAULTS.get(id(v)) or _READ_DEFAULTS.setdefault(id(v), check(v, key)))
        values[key] = v
    unknown = doc.keys() - keys.keys()
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {label}")
    return values


def _check(ok, what, convert=lambda v, where: v):
    """A check (value, path) -> value read: it accepts the values ``ok`` holds
    for, described as ``what``, and reads them with ``convert``."""
    def check(v, where):
        if not ok(v):
            raise ConfigError(f"{where} must be {what}, got {v!r}")
        return convert(v, where)
    return check


def integer(lo, hi):
    return _check(lambda v: type(v) is int and lo <= v <= hi, f"an integer in [{lo}, {hi}]")


def number(interval="(-inf, inf)"):
    """A finite number in ``interval``, written like ``"[0, 1)"``; read as a float."""
    lo, hi = (float(s) for s in interval[1:-1].split(","))

    def ok(v):
        # NaN fails every comparison; an infinite end of an interval is open
        real = isinstance(v, (int, float)) and not isinstance(v, bool)
        x = float(v) if real and abs(v) < sys.float_info.max else math.nan
        return ((lo < x if interval[0] == "(" else lo <= x)
                and (x < hi if interval[-1] == ")" else x <= hi))
    return _check(ok, f"a number in {interval}", lambda v, where: float(v))


def choice(*options):
    return _check(lambda v: isinstance(v, str) and v in options, f"one of {list(options)}")


flag = _check(lambda v: isinstance(v, bool), "true or false")
text = _check(lambda v: isinstance(v, str), "a string")
nonempty_text = _check(lambda v: isinstance(v, str) and v != "", "a non-empty string")


def listof(item, lo=0, hi=math.inf):
    return _check(lambda v: isinstance(v, list) and lo <= len(v) <= hi,
                  f"a list of {lo} to {hi} items",
                  lambda v, where: [item(x, f"{where}[{i}]") for i, x in enumerate(v)])


def fields(*checks):
    """A list of exactly one item per check."""
    return _check(lambda v: isinstance(v, list) and len(v) == len(checks),
                  f"a list of {len(checks)} items",
                  lambda v, where: [c(x, f"{where}[{i}]") for i, (c, x) in enumerate(zip(checks, v))])


def entry(name):
    return lambda v, where: read(v, name, where)


_REAL = number()
_PER_UNIT = number("[-1e6, 1e6]")  # a slack voltage near 1e154 would overflow its certificate
_NONNEG = number("[0, inf)")
_POSITIVE = number("(0, inf)")
_FLOATS = listof(_REAL, 1, MAX_DEVICES)
_SEED = integer(0, MAX_SEED)
_TICKS = integer(0, MAX_HORIZON)
_BUS = integer(0, MAX_BUSES)


def _complex(v, where):
    """A per-unit number or ``[re, im]`` pair, read as a complex number."""
    if isinstance(v, list):
        return complex(*fields(_PER_UNIT, _PER_UNIT)(v, where))
    return complex(_PER_UNIT(v, where))


def _network(v, where):
    """A built-in network name or a network document."""
    if isinstance(v, dict):
        return read(v, "network", where)
    return choice("three-area", "two-bus")(v, where)


def _path(start, seeded_direction):
    """Drift (``start`` a point) or scalar signal (``start`` a number) spec.

    A constant path reads only ``start``. A seed draws the random walk's steps,
    and the direction of a linear or piecewise path when ``seeded_direction``
    (a scalar signal moves along +1)."""
    linear = {"start": start, "rate": (_NONNEG, 0.0)}
    if seeded_direction:
        linear["seed"] = (_SEED, None)
    return Kinds(constant={"start": start}, linear=linear,
                 random_walk={"start": start, "rate": (_NONNEG, 0.0), "seed": (_SEED, None)},
                 piecewise={**linear, "fast_rate": (_NONNEG, 0.0),
                            "fast_window": (fields(_TICKS, _TICKS), [1, 1])})


# One set of QP-instance keys and defaults, for ``load_qp`` and the inline
# instance of a qp-gradient problem; absent lists are filled per device.
_QP = {
    "curvature": (listof(_POSITIVE, 1, MAX_DEVICES), REQUIRED),
    "coupling": (_FLOATS, None),
    "tracking_weight": (_POSITIVE, 1.0),
    "regularization": (_NONNEG, 0.0),
    "box_lo": (_FLOATS, None),
    "box_hi": (_FLOATS, None),
    "output_signal": (entry("signal spec"), {"kind": "constant"}),
    "reference_signal": (entry("signal spec"), {"kind": "constant"}),
}

_INJECTIONS = {
    "load_fraction": (number("[0, 1]"), 0.7),
    "base": (listof(_complex, 1, MAX_BUSES), None),
}

TABLE = {
    "config": {
        "problem": (entry("problem"), REQUIRED),
        "mode": (choice("sync", "async"), REQUIRED),
        "norm": (choice(L2, LINF), L2),
        "channel": (entry("channel"), {"kind": "none"}),
        "horizon": (integer(1, MAX_HORIZON), REQUIRED),
        "transient_fraction": (number("[0, 1)"), 0.9),
        "seed": (_SEED, REQUIRED),
        "output": (nonempty_text, None),
        "audit_samples": (integer(1, MAX_AUDIT_SAMPLES), 2000),
        "declared_lipschitz_override": (number("(0, 1)"), None),
    },
    "problem": Kinds({
        "affine": {
            "dim": (integer(1, MAX_DIM), REQUIRED),
            "contraction": (number("(0, 1)"), REQUIRED),
            "coupling": (choice("dense", "chain", "diagonal"), "dense"),
            "blockwise": (flag, False),
            "drift": (entry("drift spec"), {"kind": "constant"}),
        },
        "qp-gradient": {
            **_QP,
            "curvature": (_QP["curvature"][0], None),  # absent: a seeded random instance
            "devices": (integer(1, MAX_DEVICES), 7),
            "instance_seed": (_SEED, None),
            "step_size": (_POSITIVE, REQUIRED),
            "noise_bound": (_NONNEG, 0.0),
            "topology": (choice("star", "none"), None),  # absent: star when async
            "adversarial_noise": (flag, False),
        },
        "loadflow": {
            "network": (_network, "three-area"),
            "injections": (entry("injection spec"), {"kind": "constant"}),
            "noise_bound": (_NONNEG, 0.0),
            "multiarea": (flag, None),  # absent: multi-area when async
            "radius": (_POSITIVE, 0.2),
        },
    }),
    "channel": Kinds({
        "none": {},
        "fixed_delay": {"delay": (_TICKS, 0)},
        "iid_drop": {"p": (number("[0, 1)"), 0.1), "max_consecutive": (_TICKS, 9)},
        "periodic": {"period": (integer(1, MAX_HORIZON), 1)},
        "schedule_csv": {"path": (text, REQUIRED), "allow_nonmonotone": (flag, False),
                         "declared_max_delay": (_TICKS, None)},
    }),
    "drift spec": _path((listof(_REAL, 1, MAX_DIM), None), seeded_direction=True),
    "signal spec": _path((_REAL, 0.0), seeded_direction=False),
    "injection spec": Kinds(constant=_INJECTIONS,
                            random_walk={**_INJECTIONS, "step": (_NONNEG, 0.0),
                                         "seed": (_SEED, None)},
                            ramp={**_INJECTIONS, "rate": (_NONNEG, 0.0)}),
    "network": {
        "buses": (integer(1, MAX_BUSES), REQUIRED),
        "slack_voltage": (_complex, REQUIRED),
        "lines": (listof(fields(_BUS, _BUS, _complex)), REQUIRED),
        "injection_limit": (listof(_NONNEG, 1, MAX_BUSES), REQUIRED),
        "areas": (listof(integer(1, MAX_BUSES), 1, MAX_BUSES), None),
    },
    "qp": _QP,
    "bound inputs": {
        "lipschitz": (_NONNEG, REQUIRED),
        "map_error": (_NONNEG, 0.0),
        "drift": (_NONNEG, 0.0),
        "max_delay": (_TICKS, 0),
        "max_stale": (integer(0, MAX_DIM), 0),
        "dim": (integer(1, MAX_DIM), 1),
        "norm": (choice(L2, LINF), L2),
        "smoothness": (_POSITIVE, None),
        "regularization": (_POSITIVE, None),
    },
}

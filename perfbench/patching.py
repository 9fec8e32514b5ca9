"""Temporary replacement of a name the program looks up at call time, and
its restoration: the one patch mechanism the benchmark uses."""

import importlib
from contextlib import contextmanager


class Slot:
    """One patchable name.  `spec` is a module ("keyopt.harness"), a class
    in a module ("keyopt.pool:ElitePool") or a dict in a module, such as the
    portfolio's solver table ("keyopt.solvers.portfolio:SOLVERS").  Raises
    ImportError, AttributeError or KeyError when the name does not exist."""

    def __init__(self, spec: str, name: str):
        module, _, attr = spec.partition(":")
        owner = importlib.import_module(module)
        self.owner = getattr(owner, attr) if attr else owner
        self.name = name
        self.table = isinstance(self.owner, dict)
        self.original = self.get()

    def get(self):
        return self.owner[self.name] if self.table else getattr(self.owner, self.name)

    def set(self, value):
        if self.table:
            self.owner[self.name] = value
        else:
            setattr(self.owner, self.name, value)


@contextmanager
def patched(changes):
    """Replace each slot's value by `wrap(original)` for (slot, wrap) in
    `changes`; everything is restored on exit."""
    done = []
    try:
        for slot, wrap in changes:
            slot.set(wrap(slot.original))
            done.append(slot)
        yield
    finally:
        for slot in reversed(done):
            slot.set(slot.original)


@contextmanager
def captured(spec: str, name: str):
    """Pass-through around one name that keeps its last return value and
    counts its calls, so the output checks can read a run's result objects.
    It reads no clock."""
    box = {"calls": 0}

    def wrap(original):
        def capture(*args, **kwargs):
            box["calls"] += 1
            box["value"] = original(*args, **kwargs)
            return box["value"]
        return capture

    with patched([(Slot(spec, name), wrap)]):
        yield box

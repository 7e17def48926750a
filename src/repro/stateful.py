"""Run state of a simulation's components: one ``state()`` / ``restore()`` pair.

A component lists in ``STATE`` the attributes a run mutates; everything
else its constructor rebuilds from the config.  :meth:`Stateful.state`
returns those attributes as plain values — arrays, numbers, dicts and
lists of them, and each nested component's own ``state()`` — so a
checkpoint is a tree of arrays rather than a pickle of class layouts.
:meth:`Stateful.restore` loads such a tree back into the objects the
constructor already built (see :func:`restore_into`).

``state()`` copies containers but hands out live arrays, and
``restore()`` adopts the arrays it is given: serialise a state before
the component runs again, and restore from a deserialised copy.
"""

from __future__ import annotations

__all__ = ["Stateful", "restore_into", "state_of"]


class Stateful:
    """Mixin: ``STATE`` names the attributes that are run state."""

    STATE: tuple[str, ...] = ()

    def state(self) -> dict:
        return {name: state_of(getattr(self, name)) for name in self.STATE}

    def restore(self, state: dict) -> None:
        for name in self.STATE:
            if not restore_into(getattr(self, name), state[name]):
                setattr(self, name, state[name])


def state_of(value):
    """Plain-value state of a component, a list of them, or a value."""
    if isinstance(value, Stateful):
        return value.state()
    if isinstance(value, list):
        return [state_of(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def restore_into(target, saved) -> bool:
    """Load ``saved`` into ``target`` in place; ``False`` if it cannot.

    Components restore recursively (a list of them element-wise) and
    lists and dicts are refilled, so a ``Counter`` stays a ``Counter``.
    Anything else — a scalar, an array — is the caller's to rebind.
    """
    if isinstance(target, Stateful):
        target.restore(saved)
    elif isinstance(target, list):
        if target and isinstance(target[0], Stateful):
            for item, item_state in zip(target, saved, strict=True):
                item.restore(item_state)
        else:
            target[:] = saved
    elif isinstance(target, dict):
        target.clear()
        target.update(saved)
    else:
        return False
    return True

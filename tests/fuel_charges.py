"""A pass's fuel that records the steps of each charge, for the tests that
count charges: the lowered code charges a run inline, on `_Fuel.left`."""

from revlang import interpreter


def recording_fuel(charges):
    """A `_Fuel` class whose instances append to `charges` the n of each
    charge of n steps (each time `left` falls) and record nothing else."""
    slot = interpreter._Fuel.left

    class Recording(interpreter._Fuel):
        __slots__ = ()

        def __init__(self, left):
            slot.__set__(self, left)

        @property
        def left(self):
            return slot.__get__(self)

        @left.setter
        def left(self, value):
            if value < slot.__get__(self):
                charges.append(slot.__get__(self) - value)
            slot.__set__(self, value)
    return Recording

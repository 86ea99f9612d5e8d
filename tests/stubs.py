"""Peer programs for tests: the engine and black-box extraction call only
``step``, and the reference-engine comparison reads ``rounds_seen`` and
``events``, so a stub needs nothing more."""


class Constant:
    """Answers the same port every round; port 0 (or any port out of range)
    idles."""

    events = None

    def __init__(self, port: int = 0):
        self.port = port
        self.rounds_seen = 0

    def step(self, obs) -> int:
        self.rounds_seen += 1
        return self.port

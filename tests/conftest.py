"""Suite-wide settings.

``hypothesis`` runs derandomized, so every run of the suite draws the same
examples and stays repeatable bit for bit, and without a deadline, so a
slow moment of the host cannot fail a property test on its timing.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")

"""Reference implementations that tests compare the shipped code against.

Nothing under ``src/`` imports from here (ROADMAP 1(ii)).
"""

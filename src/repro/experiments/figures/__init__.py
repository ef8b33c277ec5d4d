"""Paper-figure drivers (one module per figure).

Importing the package imports no driver: :mod:`..catalog` imports each
figure's module when its id is looked up.
"""

__all__ = [
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
]

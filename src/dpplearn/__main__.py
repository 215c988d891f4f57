"""``python -m dpplearn``: the command-line interface of :mod:`dpplearn.cli`."""

from .cli import main

if __name__ == "__main__":
    main()

"""``python -m ncfisher``: the same command line as ``ncfisher``."""
from .cli import main

if __name__ == "__main__":
    main()

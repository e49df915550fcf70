"""``python -m particle_paths``: the experiment CLI of ``particle_paths.cli``."""

from .cli import main

__all__ = ["main"]

if __name__ == "__main__":
    main()

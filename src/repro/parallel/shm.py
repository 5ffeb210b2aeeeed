"""The pool's payload transport: pickle, the only one.

Every chunk's items and results cross the worker pipe by pickle.
:func:`transport_mode` stays as the constant ``"pickle"`` so run
manifests keep recording the transport they ran on.
"""

from __future__ import annotations

__all__ = ["transport_mode"]


def transport_mode() -> str:
    """The pool's payload transport (always ``"pickle"``)."""
    return "pickle"

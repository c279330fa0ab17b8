"""Cocoon benchmark: see README.md."""

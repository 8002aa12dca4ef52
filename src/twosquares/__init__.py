"""Verification workbench for the analytic and synthetic squares of opposition."""

__version__ = "0.1.0"

"""Experiment harness: lite dataset registry + one runner per paper table."""

"""End-to-end and per-layer benchmark for relaybound; see README.md."""

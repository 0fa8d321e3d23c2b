"""The chain benchmark: release, serve and refresh workloads over the
paper's whole chain, with host-adjusted timings and per-layer spans.

Run ``python3 perfbench/run.py --help`` from the repository root; the
README in this directory defines every workload and metric.
"""

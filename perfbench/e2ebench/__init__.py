"""End-to-end benchmark of the cluster rule server.

The benchmark drives :class:`repro.cluster.server.ClusterServer` only
through its public calls, from inputs made by its own seeded generator
(:mod:`e2ebench.gen`), and reports publish→action latency, closed-loop
capacity, registration latency, set-up time and peak memory.  A
separate traced run (:mod:`e2ebench.tracer`) wraps the public calls of
each layer and decomposes every tick's wall time into layer self times.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.
"""

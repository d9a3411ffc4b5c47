#!/usr/bin/env python
"""The online pipeline in miniature: topics, micro-batches, warnings.

Demonstrates the paper's Fig. 3/Fig. 4 data flow directly on the
substrate APIs, without the scenario wrapper:

- vehicles produce telemetry to the RSU broker's ``IN-DATA``;
- a 50 ms micro-batch stream runs the Naive Bayes detector;
- abnormal records become warnings on ``OUT-DATA``;
- a handover forwards the per-car prediction summary over a wired
  link into the next RSU's ``CO-DATA``.

Run:  python examples/streaming_pipeline.py
"""

import numpy as np

from repro.core import RsuNode
from repro.core.detector import AD3Detector
from repro.core.features import CO_DATA, OUT_DATA
from repro.core.vehicle import VehicleNode
from repro.dataset import DatasetGenerator, GeneratorConfig, Preprocessor
from repro.geo import CityNetworkBuilder, RoadType
from repro.net.dsrc import DsrcChannel
from repro.net.link import WiredLink
from repro.simkernel import Simulator
from repro.streaming import Consumer, JsonSerde


def main() -> None:
    # Train a motorway detector offline.
    network = CityNetworkBuilder(seed=1).build_corridor()
    dataset = DatasetGenerator(
        network, GeneratorConfig(n_cars=80, trips_per_car=5, seed=5)
    ).generate()
    dataset = Preprocessor().run(dataset)
    motorway = dataset.by_road_type(RoadType.MOTORWAY)
    detector = AD3Detector(RoadType.MOTORWAY).fit(motorway.block)

    # Wire the online world: two RSUs joined by Ethernet, one vehicle.
    sim = Simulator()
    rsu_motorway = RsuNode(sim, "rsu-motorway", detector)
    rsu_link = RsuNode(sim, "rsu-link", detector)
    rsu_motorway.connect(rsu_link, WiredLink(sim, name="mw->link"))

    channel = DsrcChannel(sim, rng=np.random.default_rng(0))
    abnormal_stream = [r for r in motorway.records if r.label == 0][:40]
    vehicle = VehicleNode(
        sim, car_id=1, records=abnormal_stream, rsu=rsu_motorway,
        channel=channel, rng=np.random.default_rng(1),
    )

    rsu_motorway.start(until=3.0)
    rsu_link.start(until=3.0)
    vehicle.start(until=3.0)

    # Half-way through, the vehicle hands over to the link RSU.
    def handover() -> None:
        sent = rsu_motorway.handover(1, "rsu-link")
        print(f"t={sim.now:.2f}s handover: summary forwarded={sent}")

    sim.at(1.5, handover)
    sim.run_until(3.2)
    # Settle the vehicle's 10 ms polls (and send any beacon still due).
    vehicle.stop()

    print(f"\nRSU processed {len(rsu_motorway.events)} records, "
          f"issued {rsu_motorway.warnings_issued} warnings")
    print(f"vehicle received {vehicle.stats.warnings_received} warnings; "
          f"mean end-to-end latency "
          f"{1e3 * np.mean(vehicle.stats.e2e_latencies_s):.1f} ms")

    # Peek at the wire: what OUT-DATA and CO-DATA actually carry (both
    # JSON by default).  A poll hands back each partition's record
    # bytes as one block.
    serde = JsonSerde()

    def first_record(broker, topic: str):
        consumer = Consumer(broker)
        consumer.subscribe([topic])
        (segment,) = consumer.poll_block(max_records=1)
        return serde.deserialize(segment.value_list()[0])

    warning = first_record(rsu_motorway.broker, OUT_DATA)
    print(f"\nsample OUT-DATA warning: {warning}")
    summary = first_record(rsu_link.broker, CO_DATA)
    print(f"sample CO-DATA summary:  {summary}")
    print(f"link RSU now knows car 1 history: {rsu_link.summaries[1]}")


if __name__ == "__main__":
    main()

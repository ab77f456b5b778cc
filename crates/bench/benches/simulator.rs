//! Benchmarks of the drive-test simulator: radio snapshots, SINR, and the
//! full drive loop (epochs per second of simulated drive).

use mm_bench::{corridor, metro};
use mm_bench::{criterion_group, criterion_main, Criterion, Throughput};
use mm_rng::SmallRng;
use mmcarriers::world::CITY_SIZE_M;
use mmnetsim::mobility::{Mobility, CITY_SPEED_MPS};
use mmnetsim::run::{drive, DriveConfig};
use mmradio::cell::CellId;
use mmradio::geom::Point;

fn bench_radio(c: &mut Criterion) {
    let network = corridor();
    let pos = Point::new(3_000.0, 60.0);
    c.bench_function("measure_all_5_cells", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| network.deployment.measure_all(pos, &mut rng))
    });
    c.bench_function("sinr_5_cells", |b| {
        b.iter(|| network.deployment.sinr(CellId(2), pos))
    });
}

/// The same two kernels in a city where a UE hears every cell: the
/// per-epoch cost the metro fleet pays.
fn bench_radio_city(c: &mut Criterion) {
    let network = metro();
    let dep = &network.deployment;
    let pos = Point::new(CITY_SIZE_M / 2.0, CITY_SIZE_M / 2.0);
    c.bench_function("measure_all_city", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| dep.measure_all(pos, &mut rng))
    });
    let (serving, _) = dep
        .strongest(pos, None)
        .expect("the city centre hears a cell");
    c.bench_function("sinr_city", |b| b.iter(|| dep.sinr(serving, pos)));
}

fn bench_drive(c: &mut Criterion) {
    let network = corridor();
    let mut g = c.benchmark_group("drive");
    g.sample_size(10);
    // 60 s of simulated driving at 100 ms epochs = 600 epochs per iteration.
    g.throughput(Throughput::Elements(600));
    g.bench_function("active_60s_speedtest", |b| {
        b.iter(|| {
            let cfg = DriveConfig::active_speedtest(
                Mobility::straight_line(60.0, 9_000.0, CITY_SPEED_MPS),
                60_000,
                11,
            );
            drive(&network, &cfg).expect("attaches")
        })
    });
    g.bench_function("idle_60s", |b| {
        b.iter(|| {
            let cfg = DriveConfig::idle(
                Mobility::straight_line(60.0, 9_000.0, CITY_SPEED_MPS),
                60_000,
                11,
            );
            drive(&network, &cfg).expect("attaches")
        })
    });
    g.finish();
}

criterion_group!(benches, bench_radio, bench_radio_city, bench_drive);
criterion_main!(benches);

//! Quickstart: build a network, inspect reception, answer a batch of
//! queries through the engine, draw the diagram, and run approximate
//! point location.
//!
//! Run with: `cargo run --example quickstart`

use sinr_diagrams::prelude::*;
use sinr_diagrams::{core::bounds, diagram::render};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A uniform power network (the paper's setting) ---------------
    // Three stations, background noise N = 0.02, reception threshold β = 2,
    // path loss α = 2.
    let net = Network::builder()
        .station(Point::new(-2.0, 0.0))
        .station(Point::new(2.5, 0.5))
        .station(Point::new(0.0, 3.0))
        .background_noise(0.02)
        .threshold(2.0)
        .build()?;
    println!("network: {net}");

    // --- 2. Pointwise reception -----------------------------------------
    let p = Point::new(-1.2, 0.3);
    for i in net.ids() {
        println!(
            "  SINR({i}, {p}) = {:8.4}  heard: {}",
            net.sinr(i, p),
            net.is_heard(i, p)
        );
    }
    println!("  heard_at({p}) = {:?}", net.heard_at(p));

    // --- 2b. Batched queries through the engine --------------------------
    // Build once (SoA layout + weighted kd-tree dispatch to the
    // power-diagram cell, which under uniform power is the nearest
    // station's, Observation 2.2), then answer many points in one
    // work-stolen parallel pass: O(n) per point instead of the scalar
    // O(n²).
    let engine = net.query_engine();
    let receivers: Vec<Point> = (-20..=20)
        .flat_map(|a| (-20..=20).map(move |b| Point::new(a as f64 * 0.25, b as f64 * 0.25)))
        .collect();
    let mut answers = vec![Located::Silent; receivers.len()];
    engine.locate_batch(&receivers, &mut answers);
    let mut heard = vec![0usize; net.len()];
    let mut silent = 0usize;
    for a in &answers {
        match a.station() {
            Some(i) => heard[i.index()] += 1,
            None => silent += 1,
        }
    }
    println!(
        "\nbatched {} receivers through kd-tree dispatch: per-station {:?}, silent {}",
        receivers.len(),
        heard,
        silent,
    );

    // --- 2c. The vectorized backend --------------------------------------
    // SimdScan runs the same exact scan several stations per instruction
    // (8-lane AVX-512 or 4-lane AVX2 when the CPU has them, detected
    // once at build; portable fallback otherwise). Same trait, same
    // answers. Batches of ≥ 2048 points against ≥ 128 stations
    // additionally run through the spatially-coherent tiled executor
    // (Morton tiles + certified candidate pruning — see the
    // `sinr_core::engine` "execution model" docs); answers stay
    // bit-identical to the serial path either way.
    let simd = SimdScan::new(&net);
    let mut simd_answers = vec![Located::Silent; receivers.len()];
    simd.locate_batch(&receivers, &mut simd_answers);
    assert_eq!(simd_answers, answers, "backends agree through QueryEngine");
    println!(
        "SimdScan ({} kernel, {} lanes) agrees on all {} receivers",
        simd.kernel().name(),
        simd.kernel().lanes(),
        receivers.len(),
    );

    // --- 3. Zone geometry: δ, Δ, fatness (Theorems 2, 4.1, 4.2) ---------
    for i in net.ids() {
        let zone = net.reception_zone(i);
        let profile = zone.radial_profile(180).expect("bounded zones");
        let zb = bounds::zone_bounds(&net, i);
        println!(
            "  {i}: δ={:.4} (≥{:.4}), Δ={:.4} (≤{:.4}), φ={:.3} (≤{:.3})",
            profile.delta(),
            zb.delta_lower,
            profile.big_delta(),
            zb.delta_upper.unwrap_or(f64::INFINITY),
            profile.fatness().unwrap(),
            zb.fatness_const.unwrap(),
        );
    }

    // --- 4. The SINR diagram as ASCII art --------------------------------
    let map = ReceptionMap::compute(&net, BBox::centered_square(6.0), 72, 36);
    println!("\nSINR diagram (stations 0,1,2; '.' = silence):");
    print!("{}", render::ascii(&map));

    // --- 5. Approximate point location (Theorem 3) -----------------------
    let locator = sinr_diagrams::pointloc::PointLocator::build(
        &net,
        &sinr_diagrams::pointloc::QdsConfig::with_epsilon(0.2),
    )?;
    println!(
        "\npoint location (ε = 0.2, {} uncertainty cells):",
        locator.total_question_cells()
    );
    for q in [
        Point::new(-1.8, 0.1),
        Point::new(0.4, 0.9),
        Point::new(5.0, -4.0),
    ] {
        println!("  locate({q}) = {:?}", locator.locate(q));
    }
    Ok(())
}

//! Integration tests for the SVM extensions: regression through the
//! scheduler, model persistence round trips, training on a scheduled layout
//! bit for bit, and the preprocessing pipeline.

#![allow(clippy::needless_range_loop)]

use dls::prelude::*;
use dls::svm::{read_model, train_svr, write_model, SvrParams};
use dls_data::labels::linear_teacher_labels;
use dls_data::preprocess::{normalize_rows, FeatureScaler, ScaleRange};
use dls_data::stratified_split;

/// ε-SVR on a scheduled layout: the regression solver accepts any format
/// the scheduler picks, and the tube holds.
#[test]
fn svr_trains_on_scheduled_layout() {
    let mut t = TripletMatrix::new(24, 2);
    let mut y = Vec::new();
    for i in 0..24 {
        let x1 = i as f64 / 23.0 * 2.0 - 1.0;
        t.push(i, 0, x1);
        t.push(i, 1, 1.0); // bias-like feature
        y.push(3.0 * x1 - 0.5);
    }
    let t = t.compact();
    let scheduled = LayoutScheduler::new().schedule(&t);
    let params =
        SvrParams { kernel: KernelKind::Linear, c: 100.0, epsilon: 0.05, ..Default::default() };
    let (model, stats) = train_svr(scheduled.matrix(), &y, &params).unwrap();
    assert!(stats.converged);
    for i in 0..24 {
        let pred = model.decision_function(&t.row_sparse(i));
        assert!((pred - y[i]).abs() <= 0.15, "sample {i}: {pred} vs {}", y[i]);
    }
}

/// Train → persist → reload → identical predictions, through a file.
#[test]
fn model_persistence_round_trip_via_file() {
    let spec = DatasetSpec::by_name("adult").unwrap().scaled(20);
    let data = generate(&spec, 11);
    let labels = linear_teacher_labels(&data, 0.0, 11);
    let scheduled = LayoutScheduler::new().schedule(&data);
    let params = SmoParams { kernel: KernelKind::Gaussian { gamma: 0.3 }, ..Default::default() };
    let model = dls::svm::train(scheduled.matrix(), &labels, &params).unwrap();

    let path = std::env::temp_dir().join("dls_roundtrip.model");
    {
        let mut f = std::fs::File::create(&path).unwrap();
        write_model(&mut f, &model).unwrap();
    }
    let loaded = {
        let f = std::fs::File::open(&path).unwrap();
        read_model(std::io::BufReader::new(f)).unwrap()
    };
    std::fs::remove_file(&path).unwrap();

    for i in 0..data.rows() {
        let r = data.row_sparse(i);
        assert!(
            (model.decision_function(&r) - loaded.decision_function(&r)).abs() < 1e-9,
            "row {i}"
        );
    }
}

/// The layout the scheduler picks changes where the SMSV time goes, never
/// the answer: training on it and on CSR gives the same statistics and the
/// same bias and coefficients, bit for bit.
#[test]
fn scheduled_layout_trains_bit_identically_to_csr() {
    let spec = DatasetSpec::by_name("connect-4").unwrap().scaled(20);
    let data = generate(&spec, 3);
    let labels = linear_teacher_labels(&data, 0.0, 3);
    let scheduled = LayoutScheduler::new().schedule(&data);
    let csr = AnyMatrix::from_triplets(Format::Csr, &data);

    let params = SmoParams { kernel: KernelKind::Linear, ..Default::default() };
    let (m1, s1) = dls::svm::train_with_stats(scheduled.matrix(), &labels, &params).unwrap();
    let (m2, s2) = dls::svm::train_with_stats(&csr, &labels, &params).unwrap();
    assert!(s1.converged);
    assert_eq!(s1, s2, "scheduled {} vs CSR", scheduled.format());
    assert_eq!(m1.bias().to_bits(), m2.bias().to_bits());
    let bits = |m: &SvmModel| m.coefficients().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&m1), bits(&m2));
}

/// Preprocessing composes: normalise rows, scale columns, split, train —
/// accuracy on held-out data beats chance comfortably.
#[test]
fn preprocessing_pipeline_end_to_end() {
    // adult/4: enough rows relative to the feature count that a linear
    // teacher generalises to held-out data.
    let spec = DatasetSpec::by_name("adult").unwrap().scaled(4);
    let data = normalize_rows(&generate(&spec, 5));
    let labels = linear_teacher_labels(&data, 0.0, 5);
    let split = stratified_split(&data, &labels, 0.3, 9);

    let scaler = FeatureScaler::fit(&split.train_x, ScaleRange::ZeroOne);
    let train_x = scaler.transform(&split.train_x);
    let test_x = scaler.transform(&split.test_x);

    let scheduled = LayoutScheduler::new().schedule(&train_x);
    let params = SmoParams {
        kernel: KernelKind::Linear,
        c: 10.0,
        max_iterations: 20_000,
        ..Default::default()
    };
    let model = dls::svm::train(scheduled.matrix(), &split.train_y, &params).unwrap();
    let preds: Vec<f64> =
        (0..test_x.rows()).map(|i| model.predict_label(&test_x.row_sparse(i))).collect();
    let acc = dls::svm::accuracy(&preds, &split.test_y);
    assert!(acc > 0.75, "held-out accuracy {acc}");
}

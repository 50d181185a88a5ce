//! Replay equals live: driving `a4nn_penguin::replay` over a record's
//! recorded learning curve, at the run's engine configuration, gives the
//! verdicts the engine gave while the model trained, bit for bit. Every
//! analysis that replays the engine over recorded curves (`a4nn
//! reproduce`'s engine ablations) rests on this.

use a4nn::prelude::*;
use a4nn_penguin::replay;

fn bits(p: Option<f64>) -> Option<u64> {
    p.map(f64::to_bits)
}

#[test]
fn replaying_a_recorded_curve_gives_its_live_verdicts() {
    for beam in BeamIntensity::ALL {
        let config = WorkflowConfig {
            nas: NasSettings {
                population: 8,
                offspring: 8,
                generations: 3,
                ..NasSettings::paper_defaults()
            },
            ..WorkflowConfig::a4nn(beam, 2, 37)
        };
        let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(beam));
        let out = A4nnWorkflow::new(config)
            .run(&factory, RunOptions::default())
            .unwrap();
        let engine = out.config.engine.as_ref().unwrap();
        let records = &out.commons.records;
        assert!(records.iter().any(ModelRecord::terminated_early));
        for m in records {
            let curve = m.learning_curve();
            let run = replay(engine, &curve);
            let id = m.model_id;
            let live: Vec<_> = m.epochs.iter().map(|e| bits(e.prediction)).collect();
            let replayed: Vec<_> = run.predictions.iter().map(|&p| bits(p)).collect();
            assert_eq!(replayed, live, "{beam:?} model {id}: prediction trail");
            let stop = run.converged.map(|_| curve[run.epochs() - 1].0);
            assert_eq!(
                stop,
                m.termination_epoch(),
                "{beam:?} model {id}: stop epoch"
            );
            assert_eq!(
                bits(run.converged),
                bits(m.predicted_fitness),
                "{beam:?} model {id}: predicted fitness"
            );
        }
    }
}

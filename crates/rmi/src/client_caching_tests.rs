//! [`Client::with_cache`](crate::Client::with_cache) through a real
//! dispatcher: what is memoized, what is not, and what the caller is told.
//! (Compiled as `caching::tests`, the path these tests had when the memo
//! was a transport decorator, so the suite's test ids carry over.)

mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use vcad_obs::Collector;

    use crate::dispatch::{Dispatcher, ObjectRegistry, RemoteObject, ServerCtx};
    use crate::transport::InProcTransport;
    use crate::{Cache, Client, RmiError, Value};

    struct Counting {
        served: AtomicU64,
    }

    impl RemoteObject for Counting {
        fn invoke(
            &self,
            method: &str,
            args: &[Value],
            _ctx: &ServerCtx,
        ) -> Result<Value, RmiError> {
            self.served.fetch_add(1, Ordering::SeqCst);
            match method {
                "pure" => Ok(args.first().cloned().unwrap_or(Value::Null)),
                "mutating" => Ok(Value::I64(self.served.load(Ordering::SeqCst) as i64)),
                "failing" => Err(RmiError::bad_args("failing")),
                _ => Err(RmiError::unknown_method("Counting", method)),
            }
        }
    }

    fn only_pure(method: &str) -> bool {
        method == "pure"
    }

    /// A counting root object behind a client memoizing `cacheable`
    /// methods into `cache` as `provider`.
    fn rig_on(
        cache: &Arc<Cache>,
        provider: &str,
        cacheable: fn(&str) -> bool,
    ) -> (Arc<Counting>, Client) {
        let object = Arc::new(Counting {
            served: AtomicU64::new(0),
        });
        let registry = Arc::new(ObjectRegistry::new());
        registry.register_root(Arc::clone(&object) as Arc<dyn RemoteObject>);
        let dispatcher = Arc::new(Dispatcher::new(registry));
        let client = Client::new(Arc::new(InProcTransport::new(dispatcher))).with_cache(
            Arc::clone(cache),
            provider,
            cacheable,
        );
        (object, client)
    }

    fn rig() -> (Arc<Counting>, Client, Arc<Cache>) {
        let cache = Arc::new(Cache::new(&Collector::disabled()));
        let (object, client) = rig_on(&cache, "unit.example.com", only_pure);
        (object, client, cache)
    }

    #[test]
    fn identical_calls_hit_the_wire_once() {
        let (object, client, cache) = rig();
        for _ in 0..5 {
            let v = client.root().invoke("pure", vec![Value::I64(7)]).unwrap();
            assert_eq!(v, Value::I64(7));
        }
        assert_eq!(object.served.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (4, 1));
    }

    #[test]
    fn the_caller_is_told_which_calls_were_served_locally() {
        let (_object, client, _cache) = rig();
        let root = client.root();
        let cached = |method: &str| root.invoke_with_meta(method, vec![]).unwrap().1;
        assert_eq!([cached("pure"), cached("pure")], [false, true]);
        assert_eq!([cached("mutating"), cached("mutating")], [false, false]);
    }

    #[test]
    fn different_arguments_are_different_keys() {
        let (object, client, _) = rig();
        for i in 0..3 {
            client.root().invoke("pure", vec![Value::I64(i)]).unwrap();
        }
        assert_eq!(object.served.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn non_cacheable_methods_pass_through() {
        let (object, client, cache) = rig();
        for _ in 0..3 {
            client.root().invoke("mutating", vec![]).unwrap();
        }
        assert_eq!(object.served.load(Ordering::SeqCst), 3);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn error_responses_are_not_cached() {
        // "failing" is not in the usual cacheable set, so force the
        // point with a predicate that admits it.
        let cache = Arc::new(Cache::new(&Collector::disabled()));
        let (object, client) = rig_on(&cache, "unit.example.com", |_| true);
        assert!(client.root().invoke("failing", vec![]).is_err());
        assert!(client.root().invoke("failing", vec![]).is_err());
        assert_eq!(object.served.load(Ordering::SeqCst), 2);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn epoch_bump_forces_a_refetch() {
        let (object, client, cache) = rig();
        client.root().invoke("pure", vec![Value::I64(1)]).unwrap();
        client.root().invoke("pure", vec![Value::I64(1)]).unwrap();
        assert_eq!(object.served.load(Ordering::SeqCst), 1);
        cache.bump_epoch("unit.example.com");
        client.root().invoke("pure", vec![Value::I64(1)]).unwrap();
        assert_eq!(object.served.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn cache_outcomes_are_traced() {
        use vcad_obs::ArgValue;
        let obs = Collector::enabled();
        let (_object, client, _cache) = rig();
        let client = client.with_collector(obs.clone());
        client.root().invoke("pure", vec![Value::I64(3)]).unwrap();
        client.root().invoke("pure", vec![Value::I64(3)]).unwrap();

        let trace = obs.trace();
        let outcomes: Vec<&str> = trace
            .events_named("client:pure")
            .iter()
            .filter_map(|e| {
                e.args.iter().find_map(|(k, v)| match v {
                    ArgValue::Str(s) if k == "outcome" => Some(s.as_str()),
                    _ => None,
                })
            })
            .collect();
        assert_eq!(outcomes, ["miss", "hit"]);
    }

    #[test]
    fn traced_and_untraced_calls_share_cache_entries() {
        // A client with tracing enabled sends v2 frames carrying a
        // context; the key must not depend on it, so the traced call
        // hits the entry an untraced client stored.
        let (object, untraced, cache) = rig();
        untraced.root().invoke("pure", vec![Value::I64(4)]).unwrap();
        assert_eq!(object.served.load(Ordering::SeqCst), 1);
        let traced = untraced.clone().with_collector(Collector::enabled());
        traced.root().invoke("pure", vec![Value::I64(4)]).unwrap();
        assert_eq!(
            object.served.load(Ordering::SeqCst),
            1,
            "traced call must be a cache hit, not a second wire call"
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn providers_do_not_share_keys() {
        // Same object id, method and args on two providers must be
        // two distinct cache entries.
        let cache = Arc::new(Cache::new(&Collector::disabled()));
        let rigs =
            ["alpha.example.com", "beta.example.com"].map(|host| rig_on(&cache, host, only_pure));
        for (_, client) in &rigs {
            client.root().invoke("pure", vec![Value::I64(9)]).unwrap();
        }
        // Each provider served its own call: no cross-provider hit.
        for (object, _) in &rigs {
            assert_eq!(object.served.load(Ordering::SeqCst), 1);
        }
        assert_eq!(cache.stats().entries, 2);
    }
}

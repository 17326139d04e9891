//! The model zoo: every DNN evaluated in the paper, built from scratch
//! with the shape-checked [`crate::NetworkBuilder`].
//!
//! Each named network (the six table networks, the SqueezeDet trunk, the
//! five SqueezeNext variants and the two Figure-4 families) is built at
//! most once per process and shared: its function returns a clone of
//! the first build, and a [`Network`] clone shares the layer allocation.
//! The parametric builders ([`mobilenet`], [`SqueezeNextConfig::build`])
//! build a fresh network on every call.

mod alexnet;
mod darknet;
mod mobilenet;
mod squeezedet;
mod squeezenet;
mod squeezenext;

pub use alexnet::alexnet;
pub use darknet::tiny_darknet;
pub use mobilenet::{mobilenet, mobilenet_family, mobilenet_v1};
pub use squeezedet::squeezedet_trunk;
pub use squeezenet::{squeezenet_v1_0, squeezenet_v1_1};
pub use squeezenext::{
    squeezenext, squeezenext_family, squeezenext_variant, squeezenext_variants, SqueezeNextConfig,
};

use crate::network::Network;

/// The six networks of Tables 1 and 2, in the paper's row order.
pub fn table_networks() -> Vec<Network> {
    vec![
        alexnet(),
        mobilenet_v1(),
        tiny_darknet(),
        squeezenet_v1_0(),
        squeezenet_v1_1(),
        squeezenext(),
    ]
}

/// Looks up a zoo network by name, ignoring case and every character
/// that is not an ASCII letter or digit, and returns the shared network
/// of the named function.
///
/// Recognized names, as they read once normalized (so `"SqNxt-23v3"`
/// and `"1.0-SqNxt-23v3"` both name variant 3):
/// - `alexnet`;
/// - `mobilenet`, `mobilenetv1`, `10mobilenet224`, `100mobilenet224`;
/// - `tinydarknet`, `darknet`;
/// - `squeezenet`, `squeezenetv10` (v1.0) and `squeezenetv11` (v1.1);
/// - `squeezenext`, `10sqnxt23` (variant 5);
/// - `squeezedet`, `squeezedettrunk`;
/// - `sqnxt23v1` .. `sqnxt23v5` and `10sqnxt23v1` .. `10sqnxt23v5`.
pub fn by_name(name: &str) -> Option<Network> {
    let key: String =
        name.to_ascii_lowercase().chars().filter(|c| c.is_ascii_alphanumeric()).collect();
    let net = match key.as_str() {
        "alexnet" => alexnet(),
        "mobilenet" | "mobilenetv1" | "10mobilenet224" | "100mobilenet224" => mobilenet_v1(),
        "tinydarknet" | "darknet" => tiny_darknet(),
        "squeezenet" | "squeezenetv10" => squeezenet_v1_0(),
        "squeezenetv11" => squeezenet_v1_1(),
        "squeezenext" | "10sqnxt23" => squeezenext(),
        "squeezedet" | "squeezedettrunk" => squeezedet_trunk(),
        "sqnxt23v1" | "10sqnxt23v1" => squeezenext_variant(1),
        "sqnxt23v2" | "10sqnxt23v2" => squeezenext_variant(2),
        "sqnxt23v3" | "10sqnxt23v3" => squeezenext_variant(3),
        "sqnxt23v4" | "10sqnxt23v4" => squeezenext_variant(4),
        "sqnxt23v5" | "10sqnxt23v5" => squeezenext_variant(5),
        _ => return None,
    };
    Some(net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_networks_are_the_six_rows() {
        let nets = table_networks();
        let names: Vec<&str> = nets.iter().map(|n| n.name()).collect();
        assert_eq!(
            names,
            [
                "AlexNet",
                "1.00-MobileNet-224",
                "Tiny Darknet",
                "SqueezeNet v1.0",
                "SqueezeNet v1.1",
                "1.0-SqNxt-23v5",
            ]
        );
    }

    #[test]
    fn lookup_is_forgiving() {
        assert!(by_name("AlexNet").is_some());
        assert!(by_name("squeezenet-v1.1").is_some());
        assert!(by_name("SqNxt-23v3").is_some());
        assert!(by_name("MobileNet").is_some());
        assert!(by_name("nope").is_none());
    }

    /// A fresh build of the zoo network called `name`, from its private
    /// builder.
    fn fresh(name: &str) -> Network {
        match name {
            "AlexNet" => alexnet::build(),
            "1.00-MobileNet-224" => mobilenet(1.0),
            "Tiny Darknet" => darknet::build(),
            "SqueezeNet v1.0" => squeezenet::build_v1_0(),
            "SqueezeNet v1.1" => squeezenet::build_v1_1(),
            "SqueezeDet trunk" => squeezedet::build(),
            _ => {
                let v = (1..=5).find(|v| name == format!("1.0-SqNxt-23v{v}")).unwrap();
                squeezenext::variant_config(v).build()
            }
        }
    }

    #[test]
    fn every_alias_reads_one_shared_network() {
        let aliases = [
            ("alexnet", "AlexNet"),
            ("mobilenet", "1.00-MobileNet-224"),
            ("mobilenetv1", "1.00-MobileNet-224"),
            ("10mobilenet224", "1.00-MobileNet-224"),
            ("100mobilenet224", "1.00-MobileNet-224"),
            ("tinydarknet", "Tiny Darknet"),
            ("darknet", "Tiny Darknet"),
            ("squeezenet", "SqueezeNet v1.0"),
            ("squeezenetv10", "SqueezeNet v1.0"),
            ("squeezenetv11", "SqueezeNet v1.1"),
            ("squeezenext", "1.0-SqNxt-23v5"),
            ("10sqnxt23", "1.0-SqNxt-23v5"),
            ("squeezedet", "SqueezeDet trunk"),
            ("squeezedettrunk", "SqueezeDet trunk"),
            ("sqnxt23v1", "1.0-SqNxt-23v1"),
            ("10sqnxt23v1", "1.0-SqNxt-23v1"),
            ("sqnxt23v2", "1.0-SqNxt-23v2"),
            ("10sqnxt23v2", "1.0-SqNxt-23v2"),
            ("sqnxt23v3", "1.0-SqNxt-23v3"),
            ("10sqnxt23v3", "1.0-SqNxt-23v3"),
            ("sqnxt23v4", "1.0-SqNxt-23v4"),
            ("10sqnxt23v4", "1.0-SqNxt-23v4"),
            ("sqnxt23v5", "1.0-SqNxt-23v5"),
            ("10sqnxt23v5", "1.0-SqNxt-23v5"),
        ];
        // The first lookup of each network name, which every later alias
        // of that name must share.
        let mut first: Vec<Network> = Vec::new();
        for (alias, name) in aliases {
            let Some(net) = by_name(alias) else { panic!("`{alias}` is not recognized") };
            assert_eq!(net.name(), name, "`{alias}`");
            let again = by_name(alias).unwrap();
            assert!(
                std::ptr::eq(net.layers().as_ptr(), again.layers().as_ptr()),
                "`{alias}` built its network twice"
            );
            assert!(net == fresh(name), "`{alias}` differs from a fresh build");
            match first.iter().find(|n| n.name() == name) {
                Some(earlier) => assert!(
                    std::ptr::eq(net.layers().as_ptr(), earlier.layers().as_ptr()),
                    "`{alias}` does not share the network of its other aliases"
                ),
                None => first.push(net),
            }
        }
    }

    #[test]
    fn named_lists_share_their_networks() {
        let same = |a: &[Network], b: &[Network]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| std::ptr::eq(x.layers().as_ptr(), y.layers().as_ptr()))
        };
        assert!(same(&squeezenext_family(), &squeezenext_family()));
        assert_eq!(squeezenext_family(), squeezenext::build_family());
        assert!(same(&mobilenet_family(), &mobilenet_family()));
        assert_eq!(mobilenet_family(), mobilenet::build_family());
        assert!(same(&squeezenext_variants(), &squeezenext_variants()));
        let by_names: Vec<Network> =
            ["alexnet", "mobilenet", "darknet", "squeezenet", "squeezenetv11", "squeezenext"]
                .iter()
                .filter_map(|alias| by_name(alias))
                .collect();
        assert!(same(&table_networks(), &by_names));
    }

    #[test]
    fn every_zoo_network_classifies_to_1000_classes() {
        for net in table_networks() {
            assert_eq!(net.output().elements(), 1000, "{}", net.name());
        }
    }

    #[test]
    fn every_zoo_network_has_positive_macs() {
        for net in table_networks() {
            assert!(net.total_macs() > 10_000_000, "{}", net.name());
        }
    }
}
